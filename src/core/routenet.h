// RouteNet (Rusek et al., SOSR 2019) — the GNN whose generalization the
// demo paper challenges.
//
// State: one hidden vector per directed link and one per source-destination
// path. Each of T message-passing iterations runs:
//   1. Path update: a GRU reads the link states along each path in hop
//      order, starting from the path's current state. Its intermediate
//      hidden states are the messages each hop sends to its link.
//   2. Link update: per link, the messages of all (path, hop) pairs that
//      cross it are summed (segment_sum) and fed to a link GRU.
// Readout MLPs map final path states to mean delay and jitter (normalized
// log space; the Normalizer maps back to seconds).
//
// Because the architecture is assembled from the input graph at run time,
// a trained model predicts on topologies, routings, and matrices never seen
// in training — the property the paper stresses with 14→50-node training
// and 24-node (Geant2) evaluation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ag/nn.h"
#include "ag/tape.h"
#include "core/graph_batch.h"
#include "dataset/dataset.h"

namespace rn::core {

// How per-hop messages are combined into a link's input. The reference
// RouteNet sums; mean aggregation is an ablation that loses the "how many
// paths load this link" signal (message count) and should generalize worse
// across traffic intensities.
enum class Aggregation : std::int32_t { kSum = 0, kMean = 1 };

struct RouteNetConfig {
  int link_state_dim = 16;
  int path_state_dim = 16;
  int iterations = 4;       // T message-passing rounds
  int readout_hidden = 32;  // width of the readout MLP's hidden layer
  Aggregation aggregation = Aggregation::kSum;
  // Dropout applied to path states before the readouts during training
  // (the reference implementation regularizes its readout the same way);
  // inference never drops.
  float dropout = 0.0f;
  std::uint64_t seed = 42;  // weight-init seed
};

class RouteNet {
 public:
  explicit RouteNet(const RouteNetConfig& config);

  struct Output {
    ag::ValueId delay = ag::kInvalidValue;   // P×1, normalized log space
    ag::ValueId jitter = ag::kInvalidValue;  // P×1, normalized log space
  };

  // Records the full message-passing computation on the tape. When
  // `dropout_rng` is non-null and config().dropout > 0, readout dropout is
  // active (training mode); inference callers pass nothing.
  Output forward(ag::Tape& tape, const GraphBatch& batch,
                 Rng* dropout_rng = nullptr) const;

  struct Prediction {
    std::vector<double> delay_s;   // per pair index, seconds
    std::vector<double> jitter_s;  // per pair index, seconds
  };

  // Inference on one scenario (denormalized).
  Prediction predict(const dataset::Sample& sample) const;

  // Batched inference: merges up to `batch_size` samples per forward pass
  // (disjoint graphs, so results are identical to per-sample predict but
  // amortize the tape overhead). Returns one Prediction per input sample.
  std::vector<Prediction> predict_batch(
      const std::vector<dataset::Sample>& samples, int batch_size = 8) const;

  // One merged forward pass over the given samples (no chunking — the caller
  // owns batch sizing), scattered back to one Prediction per sample. This is
  // the kernel predict_batch chunks over and the serving micro-batcher calls
  // directly on coalesced requests.
  std::vector<Prediction> predict_merged(
      const std::vector<const dataset::Sample*>& samples) const;

  const RouteNetConfig& config() const { return config_; }

  // Normalization constants are fitted by the Trainer on the training set
  // and travel with the model checkpoint.
  const dataset::Normalizer& normalizer() const { return norm_; }
  void set_normalizer(const dataset::Normalizer& norm) { norm_ = norm; }

  std::vector<ag::Parameter*> params();

  // RNMODEL4 model file: config + normalizer header, then the named-tensor
  // block, in the sealed container (util/bytes.h). load() rejects any
  // truncation, trailing byte, or CRC mismatch, and a parameter that is
  // missing or has the wrong shape.
  void save(const std::string& path) const;
  static RouteNet load(const std::string& path);

  // Total trainable scalar count.
  std::size_t num_parameters() const;

 private:
  RouteNetConfig config_;
  dataset::Normalizer norm_;
  Rng init_rng_;  // consumed by weight init; declared before the layers
  // Mutable: Tape::param takes Parameter& for gradient accumulation, and
  // forward() is logically const (it does not change the model).
  mutable ag::GruCell path_cell_;
  mutable ag::GruCell link_cell_;
  mutable ag::Mlp delay_readout_;
  mutable ag::Mlp jitter_readout_;
};

}  // namespace rn::core
