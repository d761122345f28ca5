#include "training/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/crc32.h"
#include "core/failpoint.h"
#include "core/file_io.h"
#include "core/string_util.h"
#include "nn/serialization.h"

namespace sstban::training {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'T', 'T'};
constexpr uint32_t kVersion = 1;
constexpr size_t kFooterBytes = sizeof(uint32_t);
constexpr char kPrefix[] = "train_epoch_";
constexpr char kSuffix[] = ".ckpt";

void AppendRngState(core::BufferWriter& w, const core::Rng::State& s) {
  w.Pod(s.state);
  w.Pod(s.inc);
  w.Pod(static_cast<uint8_t>(s.has_spare ? 1 : 0));
  w.Pod(s.spare);
}

bool ReadRngState(core::BufferReader& r, core::Rng::State* s) {
  uint8_t has_spare = 0;
  if (!r.Pod(&s->state) || !r.Pod(&s->inc) || !r.Pod(&has_spare) ||
      !r.Pod(&s->spare)) {
    return false;
  }
  s->has_spare = has_spare != 0;
  return true;
}

core::Status Corrupt(const std::string& what, const std::string& path) {
  return core::Status::IoError("corrupt train checkpoint (" + what +
                               "): " + path);
}

// A checkpoint resumes only the run that wrote it. Resuming another run's
// record (say, a previous adaptation round's finished one) would silently
// skip or corrupt this run.
bool SameRun(
    const TrainCheckpoint& ckpt,
    const std::vector<std::pair<std::string, autograd::Variable>>& named,
    const std::vector<int64_t>& indices, bool model_has_rng,
    int64_t max_next_epoch) {
  if (ckpt.has_model_rng != model_has_rng) return false;
  if (ckpt.next_epoch > max_next_epoch) return false;
  if (ckpt.params.size() != named.size()) return false;
  for (size_t i = 0; i < named.size(); ++i) {
    if (ckpt.params[i].first != named[i].first ||
        ckpt.params[i].second.shape() != named[i].second.shape()) {
      return false;
    }
  }
  if (ckpt.order.size() != indices.size()) return false;
  std::vector<int64_t> a = ckpt.order;
  std::vector<int64_t> b = indices;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

core::Status SaveTrainCheckpoint(const std::string& path,
                                 const TrainCheckpoint& state) {
  core::BufferWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.Pod(kVersion);
  w.Pod(state.next_epoch);
  w.Pod(state.global_step);
  AppendRngState(w, state.shuffle_rng);
  w.Pod(static_cast<uint8_t>(state.has_model_rng ? 1 : 0));
  AppendRngState(w, state.model_rng);
  w.Pod(state.best_val);
  w.Pod(state.early_best);
  w.Pod(state.early_stale);
  w.Pod(static_cast<uint64_t>(state.epoch_train_loss.size()));
  for (double loss : state.epoch_train_loss) w.Pod(loss);
  w.Pod(static_cast<uint64_t>(state.order.size()));
  for (int64_t idx : state.order) w.Pod(idx);
  w.Pod(static_cast<uint64_t>(state.params.size()));
  for (const auto& [name, value] : state.params) {
    w.Pod(static_cast<uint64_t>(name.size()));
    w.Bytes(name.data(), name.size());
    nn::AppendTensor(w, value);
  }
  w.Pod(state.adam_step);
  for (const auto& t : state.adam_m) nn::AppendTensor(w, t);
  for (const auto& t : state.adam_v) nn::AppendTensor(w, t);
  for (const auto& t : state.best_params) nn::AppendTensor(w, t);
  w.Pod(core::Crc32(w.str().data(), w.str().size()));
  return core::WriteFileAtomic(path, w.str());
}

core::Status LoadTrainCheckpoint(const std::string& path,
                                 TrainCheckpoint* state) {
  std::string blob;
  SSTBAN_RETURN_IF_ERROR(core::ReadFileToString(path, &blob));
  if (blob.size() < sizeof(kMagic) + sizeof(uint32_t) + kFooterBytes) {
    return Corrupt("too small", path);
  }
  // Verify the footer before trusting any field: a torn or bit-flipped
  // record must be rejected wholesale, not half-applied.
  uint32_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - kFooterBytes, kFooterBytes);
  uint32_t actual = core::Crc32(blob.data(), blob.size() - kFooterBytes);
  if (stored != actual) return Corrupt("checksum mismatch", path);

  core::BufferReader r(
      std::string_view(blob.data(), blob.size() - kFooterBytes));
  char magic[4];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic", path);
  }
  uint32_t version = 0;
  if (!r.Pod(&version) || version != kVersion) {
    return Corrupt(core::StrFormat("unsupported version %u", version), path);
  }
  TrainCheckpoint out;
  uint8_t has_model_rng = 0;
  if (!r.Pod(&out.next_epoch) || !r.Pod(&out.global_step) ||
      !ReadRngState(r, &out.shuffle_rng) || !r.Pod(&has_model_rng) ||
      !ReadRngState(r, &out.model_rng) || !r.Pod(&out.best_val) ||
      !r.Pod(&out.early_best) || !r.Pod(&out.early_stale)) {
    return Corrupt("truncated header", path);
  }
  out.has_model_rng = has_model_rng != 0;
  if (out.next_epoch < 0 || out.global_step < 0 || out.early_stale < 0) {
    return Corrupt("negative counters", path);
  }
  uint64_t n_loss = 0;
  if (!r.Pod(&n_loss) || n_loss > r.remaining() / sizeof(double)) {
    return Corrupt("loss history", path);
  }
  out.epoch_train_loss.resize(n_loss);
  for (auto& loss : out.epoch_train_loss) {
    if (!r.Pod(&loss)) return Corrupt("loss history", path);
  }
  uint64_t n_order = 0;
  if (!r.Pod(&n_order) || n_order > r.remaining() / sizeof(int64_t)) {
    return Corrupt("shuffle order", path);
  }
  out.order.resize(n_order);
  for (auto& idx : out.order) {
    if (!r.Pod(&idx)) return Corrupt("shuffle order", path);
  }
  uint64_t n_params = 0;
  if (!r.Pod(&n_params) || n_params > r.remaining()) {
    return Corrupt("parameter count", path);
  }
  out.params.resize(n_params);
  for (auto& [name, value] : out.params) {
    uint64_t name_len = 0;
    if (!r.Pod(&name_len) || name_len > 4096) {
      return Corrupt("parameter name", path);
    }
    name.resize(name_len);
    if (!r.Bytes(name.data(), name_len)) {
      return Corrupt("parameter name", path);
    }
    if (!nn::ReadTensor(r, &value).ok()) {
      return Corrupt("parameter '" + name + "'", path);
    }
  }
  if (!r.Pod(&out.adam_step) || out.adam_step < 0) {
    return Corrupt("adam step", path);
  }
  auto read_mirrored = [&](std::vector<tensor::Tensor>* list,
                           const char* what) -> core::Status {
    list->resize(n_params);
    for (uint64_t i = 0; i < n_params; ++i) {
      if (!nn::ReadTensor(r, &(*list)[i]).ok() ||
          (*list)[i].shape() != out.params[i].second.shape()) {
        return Corrupt(std::string(what) + " tensors", path);
      }
    }
    return core::Status::Ok();
  };
  SSTBAN_RETURN_IF_ERROR(read_mirrored(&out.adam_m, "adam m"));
  SSTBAN_RETURN_IF_ERROR(read_mirrored(&out.adam_v, "adam v"));
  SSTBAN_RETURN_IF_ERROR(read_mirrored(&out.best_params, "best-epoch"));
  if (!r.AtEnd()) return Corrupt("trailing bytes", path);
  *state = std::move(out);
  return core::Status::Ok();
}

std::string TrainCheckpointFileName(int epoch) {
  return core::StrFormat("%s%06d%s", kPrefix, epoch, kSuffix);
}

std::vector<std::string> ListTrainCheckpoints(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) == 0 &&
        name.size() > std::strlen(kSuffix) &&
        name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix),
                     kSuffix) == 0) {
      found.push_back(entry.path().string());
    }
  }
  // Zero-padded epoch numbers make lexical descending == newest first.
  std::sort(found.rbegin(), found.rend());
  return found;
}

core::Status LoadNewestValidTrainCheckpoint(const std::string& dir,
                                            TrainCheckpoint* state,
                                            std::string* path_out) {
  for (const std::string& path : ListTrainCheckpoints(dir)) {
    core::Status status = LoadTrainCheckpoint(path, state);
    if (status.ok()) {
      if (path_out != nullptr) *path_out = path;
      return core::Status::Ok();
    }
    std::fprintf(stderr,
                 "[checkpoint] skipping invalid checkpoint: %s\n",
                 status.ToString().c_str());
  }
  return core::Status::NotFound("no valid train checkpoint in " + dir);
}

bool ResumeTraining(const std::string& dir, const std::vector<int64_t>& indices,
                    int64_t max_next_epoch, const TrainingState& state,
                    TrainCheckpoint* ckpt, std::string* from) {
  std::string path;
  if (!LoadNewestValidTrainCheckpoint(dir, ckpt, &path).ok()) return false;
  auto named = state.model->NamedParameters();
  core::Rng* model_rng = state.model->TrainingRng();
  if (!SameRun(*ckpt, named, indices, model_rng != nullptr, max_next_epoch)) {
    std::fprintf(stderr,
                 "[checkpoint] %s belongs to another run (architecture, "
                 "index set or length changed); starting fresh\n",
                 path.c_str());
    return false;
  }
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second.mutable_value().CopyFrom(ckpt->params[i].second);
  }
  state.optimizer->RestoreState(ckpt->adam_step, ckpt->adam_m, ckpt->adam_v);
  state.rng->RestoreState(ckpt->shuffle_rng);
  if (model_rng != nullptr) model_rng->RestoreState(ckpt->model_rng);
  *from = std::move(path);
  return true;
}

void WriteTrainingCheckpoint(const std::string& dir, const TrainingState& state,
                             TrainCheckpoint ckpt) {
  ckpt.global_step = state.optimizer->step_count();
  ckpt.shuffle_rng = state.rng->SaveState();
  if (core::Rng* model_rng = state.model->TrainingRng()) {
    ckpt.has_model_rng = true;
    ckpt.model_rng = model_rng->SaveState();
  }
  for (auto& [name, param] : state.model->NamedParameters()) {
    ckpt.params.emplace_back(std::move(name), param.value());
  }
  ckpt.adam_step = state.optimizer->step_count();
  ckpt.adam_m = state.optimizer->first_moments();
  ckpt.adam_v = state.optimizer->second_moments();
  // A directory that cannot be created fails the write below, which warns.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  core::Status status = SaveTrainCheckpoint(
      dir + "/" + TrainCheckpointFileName(ckpt.next_epoch), ckpt);
  if (!status.ok()) {
    std::fprintf(stderr, "[checkpoint] write failed (continuing): %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace sstban::training
