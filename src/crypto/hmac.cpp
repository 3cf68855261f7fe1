#include "crypto/hmac.h"

#include <cstring>

#include "util/result.h"

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

void Hmac::update(BytesView data) { inner_.update(data); }

Digest Hmac::finish() {
  outer_.update(digest_view(inner_.finish()));
  return outer_.finish();
}

Digest hmac_sha256(BytesView key, BytesView message) {
  Hmac ctx(key);
  ctx.update(message);
  return ctx.finish();
}

Digest hkdf_extract(BytesView salt, BytesView ikm) {
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length) {
  if (length > 255 * 32) throw Error("hkdf_expand: length too large");
  Bytes out;
  out.reserve(length);
  const Hmac keyed(digest_view(prk));
  Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    Hmac ctx = keyed;
    ctx.update(t);
    ctx.update(info);
    ctx.update(BytesView(&counter, 1));
    const Digest block = ctx.finish();
    t.assign(block.begin(), block.end());
    const std::size_t take = std::min<std::size_t>(32, length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
    ++counter;
  }
  return out;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

HmacDrbg::HmacDrbg(BytesView seed) : key_(32, 0x00), v_(32, 0x01) {
  update_state(seed);
}

void HmacDrbg::update_state(BytesView provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  {
    Hmac ctx(key_);
    ctx.update(v_);
    const std::uint8_t zero = 0x00;
    ctx.update(BytesView(&zero, 1));
    ctx.update(provided);
    const Digest k = ctx.finish();
    key_.assign(k.begin(), k.end());
  }
  {
    const Digest v = hmac_sha256(key_, v_);
    v_.assign(v.begin(), v.end());
  }
  if (!provided.empty()) {
    Hmac ctx(key_);
    ctx.update(v_);
    const std::uint8_t one = 0x01;
    ctx.update(BytesView(&one, 1));
    ctx.update(provided);
    const Digest k = ctx.finish();
    key_.assign(k.begin(), k.end());
    const Digest v = hmac_sha256(key_, v_);
    v_.assign(v.begin(), v.end());
  }
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const Digest v = hmac_sha256(key_, v_);
    v_.assign(v.begin(), v.end());
    const std::size_t take = std::min<std::size_t>(32, n - out.size());
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<long>(take));
  }
  update_state({});
  return out;
}

void HmacDrbg::reseed(BytesView entropy) { update_state(entropy); }

}  // namespace lateral::crypto
