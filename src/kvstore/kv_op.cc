#include "kvstore/kv_op.h"

namespace epx::kv {

std::optional<KvOpView> KvOpView::parse(std::string_view payload) {
  net::Reader r(payload);
  KvOpView op;
  const uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(OpKind::kGetRange)) return std::nullopt;
  op.kind = static_cast<OpKind>(kind);
  op.key = r.bytes_view();
  op.value = r.bytes_view();
  op.end_key = r.bytes_view();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return op;
}

std::string KvOp::encode() const {
  return encode_op(
      kind, key, value.size(),
      [this](char* out) {
        if (!value.empty()) std::memcpy(out, value.data(), value.size());
      },
      end_key);
}

KvOp KvOp::decode(std::string_view payload) {
  KvOp op;
  if (const auto view = KvOpView::parse(payload)) {
    op.kind = view->kind;
    op.key = view->key;
    op.value = view->value;
    op.end_key = view->end_key;
  }
  return op;
}

std::string encode_pairs(const std::vector<std::pair<std::string, std::string>>& pairs) {
  return encode_pair_range(pairs.begin(), pairs.end(), [](const auto& kv) {
    return std::pair<std::string_view, std::string_view>(kv.first, kv.second);
  });
}

std::vector<std::pair<std::string, std::string>> decode_pairs(std::string_view data) {
  std::vector<std::pair<std::string, std::string>> out;
  visit_pairs(data,
              [&out](std::string_view k, std::string_view v) { out.emplace_back(k, v); });
  return out;
}

}  // namespace epx::kv
