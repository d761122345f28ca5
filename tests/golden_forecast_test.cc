// Golden-output regression tests: a committed forecast (tests/testdata/
// executor_golden.txt, one IEEE-754 bit pattern per line) is replayed
// through the serving forward — the autograd tape under NoGradGuard — on a
// fully deterministic model + input. Catches silent numeric drift between
// commits.
//
// What CI enforces is AllClose against the golden (atol 1e-5, rtol 1e-4).
// The goldens were recorded by one compiler at one -march, and the build
// uses -march=native, so other hosts round differently: on a 4-vCPU Xeon
// with AVX2 the bitwise comparison fails on both SIMD tiers while AllClose
// passes. SSTBAN_GOLDEN_BITWISE=1 additionally requires the committed bits
// exactly; no CI job sets it. Set SSTBAN_UPDATE_GOLDEN=1 to re-record after
// an intentional change.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/dataset.h"
#include "sstban/config.h"
#include "sstban/model.h"
#include "tensor/ops.h"
#include "training/forecast_service.h"

namespace sstban {
namespace {

namespace t = ::sstban::tensor;
namespace model_ns = ::sstban::sstban;

#ifndef SSTBAN_TESTDATA_DIR
#error "SSTBAN_TESTDATA_DIR must be defined by the build"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(SSTBAN_TESTDATA_DIR) + "/" + name;
}

std::vector<uint32_t> ReadGolden(const std::string& path) {
  std::ifstream in(path);
  std::vector<uint32_t> bits;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    bits.push_back(
        static_cast<uint32_t>(std::strtoul(line.c_str(), nullptr, 16)));
  }
  return bits;
}

void WriteGolden(const std::string& path, const t::Tensor& forecast,
                 const std::string& header) {
  std::ofstream out(path);
  out << "# " << header << "\n";
  const float* data = forecast.data();
  char buf[16];
  for (int64_t i = 0; i < forecast.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, &data[i], sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%08x\n", bits);
    out << buf;
  }
}

t::Tensor FromBits(const std::vector<uint32_t>& bits, const t::Shape& shape) {
  t::Tensor out = t::Tensor::Zeros(shape);
  for (size_t i = 0; i < bits.size(); ++i) {
    std::memcpy(out.data() + i, &bits[i], sizeof(float));
  }
  return out;
}

// The recorded scenario: fixed seeds everywhere, both config toggles on,
// masked and unmasked variants.
struct GoldenScenario {
  std::string file;
  bool masked;
};

constexpr int64_t kB = 2, kP = 6, kN = 4, kStepsPerDay = 8;

model_ns::SstbanConfig GoldenConfig() {
  model_ns::SstbanConfig config;
  config.num_nodes = kN;
  config.input_len = kP;
  config.output_len = kP;
  config.num_features = 1;
  config.steps_per_day = kStepsPerDay;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.encoder_blocks = 1;
  config.decoder_blocks = 1;
  config.temporal_refs = 2;
  config.spatial_refs = 2;
  config.patch_len = 2;
  config.self_supervised = false;
  config.seed = 77;
  return config;
}

void RunGoldenScenario(const GoldenScenario& scenario) {
  SCOPED_TRACE(scenario.file);
  model_ns::SstbanModel model(GoldenConfig());
  model.SetTraining(false);

  core::Rng rng(123);
  data::Batch batch;
  batch.x = t::Tensor::RandomUniform(t::Shape{kB, kP, kN, 1}, rng, -1.0f, 1.0f);
  batch.y = t::Tensor::Zeros(t::Shape{kB, kP, kN, 1});
  for (int64_t i = 0; i < kB; ++i) {
    training::AppendCalendarFeatures(/*first_step=*/2 + 9 * i, kP, kP,
                                     kStepsPerDay, &batch);
  }
  t::Tensor keep = t::Tensor::Ones(t::Shape{kB, kP, kN});
  for (int64_t i = 0; i < keep.size(); i += 5) keep.data()[i] = 0.0f;
  keep.data()[0] = 1.0f;

  t::Tensor tape;
  {
    autograd::NoGradGuard no_grad;
    tape = scenario.masked ? model.PredictMasked(batch.x, keep, batch).value()
                           : model.Predict(batch.x, batch).value();
  }

  const std::string path = GoldenPath(scenario.file);
  if (std::getenv("SSTBAN_UPDATE_GOLDEN") != nullptr) {
    WriteGolden(path, tape,
                scenario.file + " seed=77/123 [B,P,N]=[2,6,4] tape forward");
    SUCCEED() << "golden rewritten: " << path;
    return;
  }

  std::vector<uint32_t> bits = ReadGolden(path);
  ASSERT_EQ(static_cast<int64_t>(bits.size()), tape.size())
      << "golden " << path
      << " missing or stale; rerun with SSTBAN_UPDATE_GOLDEN=1";
  t::Tensor golden = FromBits(bits, tape.shape());
  EXPECT_TRUE(t::AllClose(tape, golden, /*atol=*/1e-5f, /*rtol=*/1e-4f));
  if (std::getenv("SSTBAN_GOLDEN_BITWISE") != nullptr) {
    EXPECT_EQ(std::memcmp(tape.data(), golden.data(),
                          static_cast<size_t>(tape.size()) * sizeof(float)),
              0)
        << "bitwise golden mismatch in " << path;
  }
}

TEST(GoldenForecastTest, CleanForecastMatchesCommittedGolden) {
  RunGoldenScenario({"executor_golden.txt", /*masked=*/false});
}

TEST(GoldenForecastTest, MaskedForecastMatchesCommittedGolden) {
  RunGoldenScenario({"executor_golden_masked.txt", /*masked=*/true});
}

}  // namespace
}  // namespace sstban
