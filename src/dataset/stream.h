// Sample sources: the trainer's view of a corpus.
//
// The fit loop consumes samples through the SampleSource interface so the
// same code path serves both an in-RAM std::vector<Sample> (zero-copy
// pointer indirection — exactly what the trainer always did) and an
// mmap-backed RNDS1 shard streamed from disk. materialize() is batch-
// oriented: the trainer asks for the sample indices of one minibatch, the
// source hands back stable pointers valid until the next materialize()
// call. A streamed epoch therefore holds at most one decoded minibatch in
// memory (plus whatever pages the kernel chooses to cache), so corpora no
// longer need to fit in RAM — the dataset.stream.* gauges prove it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/shard.h"

namespace rn::dataset {

class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual std::uint64_t size() const = 0;

  // Fills `out` with pointers to the samples at `indices`. Pointers stay
  // valid until the next materialize() call on this source (for the
  // vector-backed source: for its whole lifetime).
  virtual void materialize(const std::uint64_t* indices, std::size_t n,
                           std::vector<const Sample*>& out) = 0;
};

// Zero-copy view over an in-RAM vector; the vector must outlive the source.
class VectorSampleSource final : public SampleSource {
 public:
  explicit VectorSampleSource(const std::vector<Sample>& samples)
      : samples_(samples) {}

  std::uint64_t size() const override { return samples_.size(); }
  void materialize(const std::uint64_t* indices, std::size_t n,
                   std::vector<const Sample*>& out) override;

 private:
  const std::vector<Sample>& samples_;
};

struct StreamingOptions {
  // Hard cap on the encoded bytes one materialize() call may decode at
  // once. A batch that would exceed it throws instead of silently growing
  // resident memory — lower the batch size or raise the cap.
  std::size_t resident_cap_bytes = 256ull << 20;
};

// mmap-backed RNDS1 corpus. Each materialize() CRC-checks and decodes just
// the requested records into an internal buffer that is recycled on the
// next call.
class StreamingDataset final : public SampleSource {
 public:
  explicit StreamingDataset(const std::string& path,
                            StreamingOptions opts = {});

  std::uint64_t size() const override { return reader_.size(); }
  std::uint64_t file_bytes() const { return reader_.file_bytes(); }
  const ShardHeader& header() const { return reader_.header(); }
  const ShardReader& reader() const { return reader_; }

  void materialize(const std::uint64_t* indices, std::size_t n,
                   std::vector<const Sample*>& out) override;

 private:
  ShardReader reader_;
  StreamingOptions opts_;
  std::vector<Sample> batch_;
};

// Fits a Normalizer by streaming the source once in index order; on a
// VectorSampleSource this reproduces the historic vector overload
// bit-for-bit (same accumulation order), which is what keeps streamed
// training bitwise identical to in-RAM training.
Normalizer fit_normalizer(SampleSource& source, bool log_space = true);

// Loads every record of an RNDS1 shard into RAM, CRC-checked.
std::vector<Sample> load_shard(const std::string& path);

}  // namespace rn::dataset
