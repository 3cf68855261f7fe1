#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "crypto/kernels.h"
#include "util/result.h"
#include "util/wire.h"

namespace lateral::crypto {
namespace {

std::array<std::uint8_t, 64> normalize_key(BytesView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest d = Sha256::hash(key);
    std::memcpy(block.data(), d.data(), d.size());
  } else if (!key.empty()) {  // an empty view may hold a null pointer
    std::memcpy(block.data(), key.data(), key.size());
  }
  return block;
}

}  // namespace

namespace kernels {

void hmac_parts(const std::uint32_t inner[8], const std::uint32_t outer[8],
                std::span<const BytesView> parts, Sha256Kernel compress,
                HmacFinishKernel finish, std::uint8_t digest[32]) {
  std::uint32_t state[8];
  std::memcpy(state, inner, sizeof state);
  // The bytes not yet compressed, then the padding: one block, or two when
  // fewer than 9 bytes are left for 0x80 and the length.
  alignas(16) std::uint8_t tail[128];
  std::size_t fill = 0;
  std::uint64_t total = 64;  // the ipad block
  for (BytesView part : parts) {
    if (part.empty()) continue;  // an empty view may hold a null pointer
    total += part.size();
    const std::uint8_t* p = part.data();
    std::size_t n = part.size();
    if (fill > 0) {
      const std::size_t take = std::min(n, 64 - fill);
      std::memcpy(tail + fill, p, take);
      fill += take;
      p += take;
      n -= take;
      if (fill < 64) continue;
      compress(state, tail, 1);
      fill = 0;
    }
    if (n >= 64) {
      compress(state, p, n / 64);
      p += n / 64 * 64;
      n %= 64;
    }
    std::memcpy(tail, p, n);
    fill = n;
  }
  const std::size_t blocks = fill < 56 ? 1 : 2;
  tail[fill] = 0x80;
  std::memset(tail + fill + 1, 0, 64 * blocks - 8 - (fill + 1));
  wire::store_be64(tail + 64 * blocks - 8, total * 8);
  finish(state, tail, blocks, outer, digest);
}

}  // namespace kernels

Hmac::Hmac(BytesView key) {
  const auto block = normalize_key(key);
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

Digest Hmac::mac(std::initializer_list<BytesView> parts) const {
  if (inner_.finished_ || inner_.total_len_ != 64)
    throw Error("Hmac::mac on a context already fed");
  Digest out;
  kernels::hmac_parts(inner_.state_.data(), outer_.state_.data(),
                      std::span<const BytesView>(parts.begin(), parts.size()),
                      kernels::sha256_kernel(), kernels::hmac_finish_kernel(),
                      out.data());
  return out;
}

void Hmac::update(BytesView data) { inner_.update(data); }

Digest Hmac::finish() {
  outer_.update(digest_view(inner_.finish()));
  return outer_.finish();
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return Hmac(key).mac({message});
}

Digest hkdf_extract(BytesView salt, BytesView ikm) {
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length) {
  if (length > 255 * 32) throw Error("hkdf_expand: length too large");
  Bytes out;
  out.reserve(length);
  const Hmac keyed(digest_view(prk));
  Digest t;
  BytesView previous;  // T(0) is empty
  std::uint8_t counter = 1;
  while (out.size() < length) {
    t = keyed.mac({previous, info, BytesView(&counter, 1)});
    previous = digest_view(t);
    const std::size_t take = std::min<std::size_t>(32, length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
    ++counter;
  }
  return out;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

HmacDrbg::HmacDrbg(BytesView seed) : k_(Bytes(32, 0x00)) {
  v_.fill(0x01);
  update_state(seed);
}

void HmacDrbg::update_state(BytesView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V); and again with
  // 0x01 when something is provided.
  for (const std::uint8_t round : {0x00, 0x01}) {
    if (round == 0x01 && provided.empty()) break;
    k_ = Hmac(digest_view(
        k_.mac({digest_view(v_), BytesView(&round, 1), provided})));
    v_ = k_.mac({digest_view(v_)});
  }
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    v_ = k_.mac({digest_view(v_)});
    const std::size_t take = std::min<std::size_t>(32, n - out.size());
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<long>(take));
  }
  update_state({});
  return out;
}

void HmacDrbg::reseed(BytesView entropy) { update_state(entropy); }

}  // namespace lateral::crypto
