#include "serving/overload/overload.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

namespace sstban::serving {

namespace {

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

// Non-finite values (inf, nan) are malformed: no knob means them.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// "off" | "on" | comma list of key=value overrides. Unknown keys and
// malformed values are ignored — a typo'd knob must never take the server
// down, it just keeps the default. A min above the max is malformed too:
// both keep their defaults.
void ApplyAdmissionEnv(const char* env, AdmissionOptions* admission) {
  std::string spec(env);
  if (spec == "off" || spec == "0" || spec == "false") {
    admission->enabled = false;
    return;
  }
  if (spec == "on" || spec == "1" || spec == "true" || spec.empty()) return;
  const double default_min = admission->min_limit;
  const double default_max = admission->max_limit;
  for (const std::string& part : SplitCommas(spec)) {
    size_t eq = part.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = part.substr(0, eq);
    double value = 0.0;
    if (!ParseDouble(part.substr(eq + 1), &value)) continue;
    if (key == "limit") {
      admission->initial_limit = value;
    } else if (key == "min") {
      admission->min_limit = value;
    } else if (key == "max") {
      admission->max_limit = value;
    } else if (key == "tolerance") {
      admission->tolerance = value;
    } else if (key == "increase") {
      admission->increase = value;
    } else if (key == "decrease") {
      admission->decrease = value;
    }
  }
  if (admission->min_limit > admission->max_limit) {
    admission->min_limit = default_min;
    admission->max_limit = default_max;
  }
}

// "off" | "<fallback_mb>[,<shed_mb>]" — enter watermarks in MB for
// kFallbackLow and kShedLow. One value sets both (the whole ladder browns
// out at once); values past the second are ignored, and so is a value whose
// byte count does not fit in int64.
void ApplyBrownoutEnv(const char* env, BrownoutOptions* brownout) {
  std::string spec(env);
  if (spec == "off" || spec == "0" || spec == "false") {
    brownout->enabled = false;
    return;
  }
  std::vector<int64_t> mbs;
  for (const std::string& part : SplitCommas(spec)) {
    double value = 0.0;
    if (ParseDouble(part, &value) && value > 0.0 && value * 1e6 < 0x1p63) {
      mbs.push_back(static_cast<int64_t>(value * 1e6));
    }
  }
  if (mbs.empty()) return;
  for (size_t l = 0; l < brownout->enter_bytes.size(); ++l) {
    brownout->enter_bytes[l] = mbs[l < mbs.size() ? l : mbs.size() - 1];
  }
}

}  // namespace

OverloadOptions ResolveOverloadOptions() {
  OverloadOptions options;
  if (const char* env = std::getenv("SSTBAN_ADMISSION")) {
    ApplyAdmissionEnv(env, &options.admission);
  }
  if (const char* env = std::getenv("SSTBAN_BROWNOUT_WATERMARKS")) {
    ApplyBrownoutEnv(env, &options.brownout);
  }
  return options;
}

}  // namespace sstban::serving
