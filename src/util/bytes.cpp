#include "util/bytes.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace rn {

namespace {

// A magic for an error message: printable bytes kept, padding dropped,
// anything else shown as '?'.
std::string printable(std::string_view magic) {
  std::string out;
  for (const char c : magic) {
    if (c == '\n' || c == '\0') continue;
    out.push_back(c >= 0x20 && c < 0x7f ? c : '?');
  }
  return out;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  // Same directory as the target so the rename cannot cross filesystems.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RN_CHECK(out.good(), "cannot open temporary file for writing: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      RN_CHECK(false, "write failure on temporary file: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    RN_CHECK(false, "cannot rename " + tmp + " -> " + path + ": " +
                        ec.message());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RN_CHECK(in.good(), "cannot open for reading: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  RN_CHECK(!in.bad(), "read failure on " + path);
  return bytes;
}

void ByteReader::expect_done(const char* what) const {
  if (remaining() != 0) {
    fail(std::to_string(remaining()) + " trailing bytes after " + what);
  }
}

void ByteReader::fail(const std::string& msg) const {
  std::string full(context_);
  if (record_ != kNoRecord) full += " record " + std::to_string(record_);
  if (!full.empty()) full += ": ";
  full += msg;
  if (thrower_ != nullptr) thrower_(full);
  throw std::runtime_error(full);
}

void ByteReader::fail_truncated(std::uint64_t n, const char* what) const {
  fail(std::string("truncated reading ") + what + " (need " +
       std::to_string(n) + " bytes, have " + std::to_string(remaining()) +
       ")");
}

void ByteReader::fail_cap(const char* what, std::uint64_t len,
                          std::size_t max_len) const {
  fail(std::string(what) + " length " + std::to_string(len) +
       " exceeds cap " + std::to_string(max_len));
}

std::string seal(std::string_view magic, std::string_view payload) {
  RN_CHECK(magic.size() == kSealMagicLen, "container magic must be 8 bytes");
  std::string out;
  out.reserve(kSealMagicLen + 8 + payload.size() + 4);
  out.append(magic);
  put_pod(out, static_cast<std::uint64_t>(payload.size()));
  out.append(payload);
  put_pod(out, crc32(payload.data(), payload.size()));
  return out;
}

std::string_view unseal(std::string_view bytes, std::string_view magic,
                        std::string_view context) {
  ByteReader in(bytes, context);
  const std::string_view found = in.bytes(kSealMagicLen, "magic");
  if (found != magic) {
    in.fail("unsupported format '" + printable(found) +
            "' (this build reads '" + printable(magic) + "' only)");
  }
  const auto len = in.pod<std::uint64_t>("payload length");
  if (in.remaining() < 4 || len != in.remaining() - 4) {
    in.fail("payload length " + std::to_string(len) +
            " does not match the " + std::to_string(bytes.size()) +
            "-byte image");
  }
  const std::string_view payload = in.bytes(len, "payload");
  const auto stored = in.pod<std::uint32_t>("payload CRC");
  const std::uint32_t actual = crc32(payload.data(), payload.size());
  if (stored != actual) {
    in.fail("CRC mismatch: stored " + std::to_string(stored) +
            ", computed " + std::to_string(actual));
  }
  return payload;
}

}  // namespace rn
