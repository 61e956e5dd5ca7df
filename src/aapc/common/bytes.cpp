#include "aapc/common/bytes.hpp"

#include "aapc/common/error.hpp"

namespace aapc {

void ByteWriter::append_le(std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  AAPC_REQUIRE(offset + 4 <= bytes.size(),
               "patch at offset " << offset << " is past the "
                                  << bytes.size() << " written bytes");
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void ByteWriter::str(std::string_view v) {
  AAPC_REQUIRE(v.size() <= UINT32_MAX,
               "string of " << v.size() << " bytes exceeds the u32 "
                            << "length prefix");
  u32(static_cast<std::uint32_t>(v.size()));
  out_.append(v);
}

std::uint64_t ByteReader::read_le(int width, const char* what) {
  AAPC_REQUIRE(remaining() >= static_cast<std::size_t>(width),
               "truncated input: " << what << " needs " << width
                                   << " bytes, " << remaining() << " left");
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[offset_ + i]))
         << (8 * i);
  }
  offset_ += static_cast<std::size_t>(width);
  return v;
}

std::uint8_t ByteReader::u8() {
  return static_cast<std::uint8_t>(read_le(1, "u8"));
}
std::uint16_t ByteReader::u16() {
  return static_cast<std::uint16_t>(read_le(2, "u16"));
}
std::uint32_t ByteReader::u32() {
  return static_cast<std::uint32_t>(read_le(4, "u32"));
}
std::uint64_t ByteReader::u64() { return read_le(8, "u64"); }

std::string_view ByteReader::bytes(std::size_t max_length) {
  const std::uint32_t length = u32();
  AAPC_REQUIRE(length <= max_length,
               "declared string length " << length << " exceeds the limit "
                                         << max_length);
  AAPC_REQUIRE(length <= remaining(),
               "truncated input: string declares " << length << " bytes, "
                                                   << remaining() << " left");
  const std::string_view body = data_.substr(offset_, length);
  offset_ += length;
  return body;
}

void ByteReader::expect_done(std::string_view what) const {
  AAPC_REQUIRE(done(), remaining() << " trailing bytes after " << what);
}

}  // namespace aapc
