// Hostile-input tests for the checkpoint readers: every truncation, every
// single-byte flip, wrong magic, and absurd header fields must raise a
// clean std::runtime_error — never crash, hang, or allocate unbounded
// memory. Runs under the `ckpt`, `tsan`, and `asan` ctest labels so the
// sanitizer builds exercise exactly these paths.
#include "ag/serialize.h"

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace rn::ag {
namespace {

template <typename T>
void put_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::string& buf, const std::string& s) {
  put_pod(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

// Wraps a hand-crafted payload in a well-formed RNCKPT2 envelope (magic,
// length, valid CRC) so the payload parser itself is what gets tested.
std::string wrap_v2(const std::string& payload) {
  std::string bytes("RNCKPT2\n");
  put_pod(bytes, static_cast<std::uint64_t>(payload.size()));
  bytes.append(payload);
  put_pod(bytes, crc32(payload.data(), payload.size()));
  return bytes;
}

std::string valid_bytes() {
  TrainCheckpoint ck;
  ck.params.emplace_back("layer.w",
                         Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}}));
  ck.params.emplace_back("layer.b", Tensor::scalar(0.5f));
  ck.has_optimizer = true;
  ck.adam_step = 9;
  ck.lr = 1e-3f;
  ck.adam_m.emplace_back("layer.w", Tensor(2, 2));
  ck.adam_m.emplace_back("layer.b", Tensor(1, 1));
  ck.adam_v.emplace_back("layer.w", Tensor(2, 2));
  ck.adam_v.emplace_back("layer.b", Tensor(1, 1));
  std::mt19937_64 engine(7);
  engine();
  std::ostringstream os;
  os << engine;
  ck.rng_streams.emplace_back("shuffle", os.str());
  ck.rng_streams.emplace_back("dropout", os.str());
  ck.has_cursor = true;
  ck.epoch = 1;
  ck.next_index = 2;
  ck.total_batches = 5;
  ck.order = {1, 0, 3, 2};
  return train_checkpoint_bytes(ck);
}

TEST(CheckpointFuzz, ValidBytesParse) {
  const TrainCheckpoint got = parse_train_checkpoint(valid_bytes());
  EXPECT_EQ(got.params.size(), 2u);
  EXPECT_TRUE(got.has_optimizer);
  EXPECT_TRUE(got.has_cursor);
}

TEST(CheckpointFuzz, EveryTruncationThrows) {
  const std::string bytes = valid_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(parse_train_checkpoint(bytes.substr(0, len)),
                 std::runtime_error)
        << "truncation to " << len << " bytes parsed";
  }
}

TEST(CheckpointFuzz, EveryByteFlipThrows) {
  const std::string bytes = valid_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    EXPECT_THROW(parse_train_checkpoint(flipped), std::runtime_error)
        << "flip at offset " << i << " parsed";
  }
}

TEST(CheckpointFuzz, WrongMagicThrows) {
  std::string bytes = valid_bytes();
  bytes.replace(0, 8, "RNCKPT9\n");
  EXPECT_THROW(parse_train_checkpoint(bytes), std::runtime_error);
  EXPECT_THROW(parse_train_checkpoint(std::string(64, 'x')),
               std::runtime_error);
}

TEST(CheckpointFuzz, TrailingBytesAfterValidFileThrow) {
  EXPECT_THROW(parse_train_checkpoint(valid_bytes() + "extra"),
               std::runtime_error);
}

TEST(CheckpointFuzz, AbsurdParamCountThrows) {
  std::string payload;
  put_pod(payload, static_cast<std::uint32_t>(0xffffffffu));
  EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload)), std::runtime_error);
}

TEST(CheckpointFuzz, AbsurdNameLenThrows) {
  // A name length far beyond the payload must fail before allocating.
  std::string payload;
  put_pod(payload, static_cast<std::uint32_t>(1));  // one param
  put_pod(payload, static_cast<std::uint32_t>(0xfffffff0u));
  payload.append("x");
  EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload)), std::runtime_error);
  // A name length over the cap but "covered" by payload bytes also fails.
  std::string payload2;
  put_pod(payload2, static_cast<std::uint32_t>(1));
  put_pod(payload2, static_cast<std::uint32_t>(8192));
  payload2.append(8192, 'n');
  EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload2)),
               std::runtime_error);
}

TEST(CheckpointFuzz, NegativeAndHugeShapesThrow) {
  for (const auto& [rows, cols] :
       {std::pair<std::int32_t, std::int32_t>{-1, 4},
        {4, -1},
        {0x7fffffff, 0x7fffffff},
        {1 << 20, 1 << 20}}) {
    std::string payload;
    put_pod(payload, static_cast<std::uint32_t>(1));
    put_str(payload, "w");
    put_pod(payload, rows);
    put_pod(payload, cols);
    EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload)),
                 std::runtime_error)
        << rows << "x" << cols << " accepted";
  }
}

TEST(CheckpointFuzz, AbsurdRngStateLenThrows) {
  std::string payload;
  put_pod(payload, static_cast<std::uint32_t>(0));  // no params
  put_pod(payload, static_cast<std::uint8_t>(0));   // no optimizer
  put_pod(payload, static_cast<std::uint32_t>(1));  // one rng stream
  put_str(payload, "shuffle");
  put_pod(payload, static_cast<std::uint32_t>(0x7fffffffu));
  EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload)), std::runtime_error);
}

TEST(CheckpointFuzz, AbsurdOrderLenThrows) {
  std::string payload;
  put_pod(payload, static_cast<std::uint32_t>(0));  // no params
  put_pod(payload, static_cast<std::uint8_t>(0));   // no optimizer
  put_pod(payload, static_cast<std::uint32_t>(0));  // no rng streams
  put_pod(payload, static_cast<std::uint8_t>(1));   // cursor present
  put_pod(payload, static_cast<std::int32_t>(0));   // epoch
  put_pod(payload, static_cast<std::int64_t>(0));   // next_index
  put_pod(payload, static_cast<std::uint64_t>(0));  // total_batches
  put_pod(payload, 0.0);                            // best_eval_mre
  put_pod(payload, static_cast<std::int32_t>(-1));  // best_epoch
  put_pod(payload, static_cast<std::int32_t>(0));   // epochs_since_best
  put_pod(payload, 0.0);                            // epoch_loss_sum
  put_pod(payload, static_cast<std::int32_t>(0));   // epoch_batches
  put_pod(payload, static_cast<std::uint64_t>(0));  // epoch_samples
  put_pod(payload, static_cast<std::uint32_t>(0xffffff00u));
  EXPECT_THROW(parse_train_checkpoint(wrap_v2(payload)), std::runtime_error);
}

TEST(CheckpointFuzz, CursorIndexOutsideOrderThrows) {
  TrainCheckpoint ck;
  ck.has_cursor = true;
  ck.next_index = 9;
  ck.order = {0, 1, 2};
  const std::string bytes = train_checkpoint_bytes(ck);
  EXPECT_THROW(parse_train_checkpoint(bytes), std::runtime_error);
}

}  // namespace
}  // namespace rn::ag
