// Flag parsing and the synthetic world and model set-up shared by the
// command-line tools (sstban_cli, sstban_serve). Every flag is a
// `--key value` pair. A bad flag exits 2 with a one-line message before any
// training: a missing value, an unknown key, a number that does not parse
// whole or one outside the range the tool documents for it.

#ifndef SSTBAN_TOOLS_FLAGS_H_
#define SSTBAN_TOOLS_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "data/dataset.h"
#include "data/synthetic_world.h"
#include "sstban/config.h"

namespace sstban::tools {

inline constexpr int64_t kNoLimit = std::numeric_limits<int64_t>::max();
// The upper bound of a flag the tools keep in an int.
inline constexpr int64_t kIntFlagMax = std::numeric_limits<int>::max();

// Prints `message` and exits with the tools' bad-flag status.
[[noreturn]] inline void BadFlag(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        BadFlag(std::string("expected --flag, got '") + argv[i] + "'");
      }
      if (i + 1 == argc) BadFlag(std::string(argv[i]) + " needs a value");
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string GetString(const std::string& key, const std::string& fallback) {
    used_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  // --key as an integer in [lo, hi], or `fallback` when it is absent.
  int64_t GetInt(const std::string& key, int64_t fallback, int64_t lo,
                 int64_t hi = kNoLimit) {
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    int64_t value = 0;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      BadFlag("--" + key + " wants an integer, got '" + text + "'");
    }
    if (value < lo || value > hi) {
      BadFlag("--" + key + " must be " +
              (hi == kNoLimit ? "at least " + std::to_string(lo)
                              : "in [" + std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]") +
              ", got " + text);
    }
    return value;
  }

  // --key as a finite float above 0, or `fallback` when it is absent.
  float GetPositiveFloat(const std::string& key, float fallback) {
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    float value = 0.0f;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
        value <= 0.0f) {
      BadFlag("--" + key + " wants a number above 0, got '" + text + "'");
    }
    return value;
  }

  // Call after all Get*: rejects flags nobody consumed (typos).
  bool RejectUnknown() const {
    bool ok = true;
    for (const auto& [key, value] : values_) {
      if (!used_.count(key)) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

// The preset's synthetic world at --days (1-366) and --nodes (1-1024).
inline data::SyntheticWorldConfig WorldFor(const std::string& preset,
                                           Flags& flags) {
  data::SyntheticWorldConfig world;
  if (preset == "seattle") {
    world = data::SeattleLikeConfig();
  } else if (preset == "pems04") {
    world = data::Pems04LikeConfig();
  } else if (preset == "pems08") {
    world = data::Pems08LikeConfig();
  } else {
    BadFlag("unknown preset '" + preset + "' (use seattle|pems04|pems08)");
  }
  world.num_days = flags.GetInt("days", 8, 1, 366);
  world.num_nodes = flags.GetInt("nodes", 16, 1, 1024);
  return world;
}

// Exits 2 unless the world holds the two windows of `steps` slices in and
// `steps` out that a train/test split needs: 2 * steps + 1 slices.
inline void CheckStepsFit(int64_t steps, const data::TrafficDataset& dataset) {
  if (steps > (dataset.num_steps() - 1) / 2) {
    BadFlag("--steps " + std::to_string(steps) +
            " needs a world of more than 2 x " + std::to_string(steps) +
            " slices; this one has " + std::to_string(dataset.num_steps()) +
            " (raise --days)");
  }
}

inline ::sstban::sstban::SstbanConfig ModelFor(
    const std::string& preset, int64_t steps,
    const data::TrafficDataset& dataset) {
  ::sstban::sstban::SstbanConfig config;
  if (steps == 24 || steps == 36 || steps == 48) {
    // One of the paper's nine scenarios: use its Table III row.
    config = ::sstban::sstban::TableIiiConfig(preset + "-" +
                                              std::to_string(steps));
  } else {
    config.input_len = config.output_len = steps;
    config.patch_len = std::max<int64_t>(steps / 8, 1);
  }
  config.num_nodes = dataset.num_nodes();
  config.num_features = dataset.num_features();
  config.steps_per_day = dataset.steps_per_day;
  return config;
}

}  // namespace sstban::tools

#endif  // SSTBAN_TOOLS_FLAGS_H_
