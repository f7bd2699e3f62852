// KvOp: the key/value store's command payload, carried inside a
// multicast Command (paper §VI: put, get, and the multi-partition
// getrange).
//
// Wire format: kind (u8), then key, value and end_key, each a varint
// length followed by the bytes. encode_op() is the one encoder and
// KvOpView::parse() the one parser; the owning KvOp wraps both.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/buffer.h"
#include "util/hash.h"

namespace epx::kv {

enum class OpKind : uint8_t {
  kPut = 0,
  kGet = 1,
  kGetRange = 2,  ///< consistent scan of [key, end_key)
};

namespace wire {

// Raw-pointer twins of net::Writer::varint and net::Writer::bytes, for
// encoders that size their output up front (Writer::varint_size,
// Writer::bytes_size) and fill it in one pass.
inline char* put_varint(char* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) *out++ = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
  *out++ = static_cast<char>(v);
  return out;
}
inline char* put_bytes(char* out, std::string_view data) {
  out = put_varint(out, data.size());
  if (!data.empty()) std::memcpy(out, data.data(), data.size());
  return out + data.size();
}

}  // namespace wire

/// Encodes an op into exactly its wire size, in one allocation. The
/// value is `value_len` bytes written in place by `fill_value(char*)`,
/// so a caller can produce a value straight into the payload.
template <typename FillValue>
std::string encode_op(OpKind kind, std::string_view key, size_t value_len,
                      FillValue&& fill_value, std::string_view end_key) {
  using net::Writer;
  std::string out(1 + Writer::bytes_size(key.size()) + Writer::bytes_size(value_len) +
                      Writer::bytes_size(end_key.size()),
                  '\0');
  char* p = out.data();
  *p++ = static_cast<char>(kind);
  p = wire::put_bytes(p, key);
  p = wire::put_varint(p, value_len);
  fill_value(p);
  wire::put_bytes(p + value_len, end_key);
  return out;
}

/// A parsed op whose fields are views into the payload it was parsed
/// from: valid only while that payload lives.
struct KvOpView {
  OpKind kind = OpKind::kGet;
  std::string_view key;
  std::string_view value;    ///< put payload
  std::string_view end_key;  ///< getrange upper bound (exclusive)

  bool is_multi_partition() const { return kind == OpKind::kGetRange; }
  uint64_t hash() const { return key_hash(key); }

  /// Parses a whole payload; nullopt when it is truncated, a length
  /// prefix overruns it, the kind is unknown, or bytes are left over.
  static std::optional<KvOpView> parse(std::string_view payload);
};

/// Owning form of an op (tests, tools).
struct KvOp {
  OpKind kind = OpKind::kGet;
  std::string key;
  std::string value;    ///< put payload
  std::string end_key;  ///< getrange upper bound (exclusive)

  uint64_t hash() const { return key_hash(key); }

  /// Serialises into a Command payload string.
  std::string encode() const;
  /// Materialises KvOpView::parse(payload); a default KvOp (a get of
  /// the empty key) when the payload is malformed.
  static KvOp decode(std::string_view payload);
};

/// Encodes a list of key/value pairs (getrange partial results): a
/// varint count, then each key and value as length-prefixed bytes.
std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs);
std::vector<std::pair<std::string, std::string>> decode_pairs(std::string_view data);

/// encode_pairs() over [first, last), where `project(*it)` yields a
/// (key, value) pair of string_views: sized in one pass, written into
/// one exact-size buffer in a second. `*count` gets the pair count.
template <typename It, typename Project>
std::string encode_pair_range(It first, It last, Project&& project,
                              size_t* count = nullptr) {
  size_t n = 0;
  size_t size = 0;
  for (It it = first; it != last; ++it, ++n) {
    const auto [k, v] = project(*it);
    size += net::Writer::bytes_size(k.size()) + net::Writer::bytes_size(v.size());
  }
  std::string out(net::Writer::varint_size(n) + size, '\0');
  char* p = wire::put_varint(out.data(), n);
  for (It it = first; it != last; ++it) {
    const auto [k, v] = project(*it);
    p = wire::put_bytes(wire::put_bytes(p, k), v);
  }
  if (count != nullptr) *count = n;
  return out;
}

/// Calls `visit(key, value)` for each pair of an encode_pairs() buffer,
/// with views into `data`. Returns false when `data` is malformed; the
/// pairs before the fault have been visited.
template <typename Visit>
bool visit_pairs(std::string_view data, Visit&& visit) {
  net::Reader r(data);
  const uint64_t n = r.varint();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::string_view key = r.bytes_view();
    const std::string_view value = r.bytes_view();
    if (!r.ok()) break;
    visit(key, value);
  }
  return r.ok() && r.at_end();
}

}  // namespace epx::kv
