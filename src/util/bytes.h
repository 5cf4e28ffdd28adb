// The byte-format layer under every frame and file the library reads or
// writes: RNP/1 frames, RNDS1 shards, RNCKPT2 checkpoints and RNMODEL4
// model files all encode with put_pod/put_str, decode with ByteReader, and
// checksum with crc32.
//
// Integers and floats are stored host-endian (every supported host is
// little-endian, which is what the format docs specify).
//
// ByteReader is the one bounds-checked reader: every read names the field
// it reads, a read past the end throws before touching memory, length
// prefixes are capped, and expect_done rejects trailing bytes. The error
// context (a file path, a record number) is formatted only when a read
// fails, so a successful decode allocates nothing beyond what it returns.
//
// The sealed container wraps a payload as
//   char[8] magic | u64 payload_len | payload | u32 CRC-32(payload)
// (RNCKPT2 and RNMODEL4). unseal() checks the magic, that the declared
// length matches the image exactly, and the CRC, so any truncation or
// single-byte change of a sealed file is detected before it is parsed.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/check.h"

namespace rn {

// Appends one trivially copyable value.
template <typename T>
void put_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>, "POD only");
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Appends `s` behind a length prefix of type Len (u16 in RNP/1 frames, u32
// in files).
template <typename Len>
void put_str(std::string& out, std::string_view s) {
  RN_CHECK(s.size() <= std::numeric_limits<Len>::max(),
           "string of " + std::to_string(s.size()) +
               " bytes overflows its length prefix");
  put_pod(out, static_cast<Len>(s.size()));
  out.append(s);
}

// CRC-32 (IEEE 802.3 / zlib polynomial) of `len` bytes, optionally chained
// from a previous call's result: crc32(b, nb, crc32(a, na)) is the CRC of
// a followed by b.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

// Writes `bytes` to `path` via a same-directory temporary file and an
// atomic rename, so concurrent readers (and crashes) never observe a
// partially written file.
void atomic_write_file(const std::string& path, std::string_view bytes);

// The whole file at `path`; throws when it cannot be opened or read.
std::string read_file(const std::string& path);

// Bounds-checked forward reader over an in-memory image.
class ByteReader {
 public:
  // What a failed read throws; receives the formatted message. The default
  // throws std::runtime_error.
  using Thrower = void (*)(const std::string& message);
  static constexpr std::uint64_t kNoRecord = ~std::uint64_t{0};

  // `context` prefixes error messages and must outlive the reader; a
  // `record` other than kNoRecord appends " record N" to it.
  explicit ByteReader(std::string_view data, std::string_view context = {},
                      std::uint64_t record = kNoRecord,
                      Thrower thrower = nullptr)
      : data_(data), context_(context), record_(record), thrower_(thrower) {}

  template <typename T>
  T pod(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>, "POD only");
    require(sizeof(T), what);
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  // A string behind a length prefix of type Len, capped at max_len so a
  // flipped length byte cannot drive a large allocation.
  template <typename Len>
  std::string str(std::size_t max_len, const char* what) {
    const auto len = pod<Len>(what);
    if (len > max_len) fail_cap(what, len, max_len);
    return std::string(bytes(len, what));
  }

  // The next n bytes, in place.
  std::string_view bytes(std::size_t n, const char* what) {
    require(n, what);
    const std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  // Throws unless at least n more bytes are present. Callers check a
  // declared count against the bytes left before allocating for it.
  void require(std::uint64_t n, const char* what) const {
    if (n > remaining()) fail_truncated(n, what);
  }

  // Throws unless every byte has been consumed.
  void expect_done(const char* what) const;

  std::size_t remaining() const { return data_.size() - pos_; }

  [[noreturn]] void fail(const std::string& msg) const;

 private:
  [[noreturn]] void fail_truncated(std::uint64_t n, const char* what) const;
  [[noreturn]] void fail_cap(const char* what, std::uint64_t len,
                             std::size_t max_len) const;

  std::string_view data_;
  std::string_view context_;
  std::uint64_t record_;
  Thrower thrower_;
  std::size_t pos_ = 0;
};

// Sealed container: see the file comment. `magic` is exactly 8 bytes.
inline constexpr std::size_t kSealMagicLen = 8;
std::string seal(std::string_view magic, std::string_view payload);

// The payload of a sealed image (a view into `bytes`). A different magic
// fails with an error naming the format found.
std::string_view unseal(std::string_view bytes, std::string_view magic,
                        std::string_view context);

}  // namespace rn
