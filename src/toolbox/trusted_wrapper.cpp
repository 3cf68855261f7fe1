#include "toolbox/trusted_wrapper.h"

namespace lateral::toolbox {
namespace {

Bytes kv_put_request(const std::string& key, BytesView value) {
  Bytes out = to_bytes(key);
  out.push_back(0x00);
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

}  // namespace

TrustedStore::TrustedStore(legacy::LegacyOs& os, BytesView key_material)
    : os_(os), aead_(key_material) {}

Status TrustedStore::register_backend(legacy::LegacyOs& os) {
  auto& fs = os.filesystem();
  Status put_status = os.register_service(
      "kv-put", [&fs](BytesView request) -> Result<Bytes> {
        const auto separator =
            std::find(request.begin(), request.end(), std::uint8_t{0});
        if (separator == request.end()) return Errc::invalid_argument;
        const std::string path =
            "/kv/" + std::string(request.begin(), separator);
        const BytesView value(&*(separator + 1),
                              static_cast<std::size_t>(request.end() -
                                                       (separator + 1)));
        if (!fs.exists(path)) (void)fs.create(path);
        (void)fs.truncate(path, 0);
        return fs.write(path, 0, value).ok() ? Result<Bytes>(Bytes{})
                                             : Result<Bytes>(Errc::io_error);
      });
  Status get_status = os.register_service(
      "kv-get", [&fs](BytesView request) -> Result<Bytes> {
        const std::string path =
            "/kv/" + std::string(request.begin(), request.end());
        auto size = fs.size(path);
        if (!size) return Errc::io_error;
        return fs.read(path, 0, *size);
      });
  if (!put_status.ok() || !get_status.ok()) return Errc::invalid_argument;
  return Status::success();
}

Status TrustedStore::put(const std::string& key, BytesView value) {
  stats_.puts++;
  const std::uint64_t nonce = nonce_++;
  // AAD binds the ciphertext to its key: the legacy side cannot serve the
  // (authentic) value of key A for a request about key B.
  Bytes stored;
  crypto::append_sealed_box(stored, aead_.seal(nonce, to_bytes(key), value));

  auto reply = os_.call_service("kv-put", kv_put_request(key, stored));
  if (!reply) return Errc::io_error;
  latest_nonce_[key] = nonce;
  return Status::success();
}

Result<Bytes> TrustedStore::get(const std::string& key) {
  stats_.gets++;
  auto reply = os_.call_service("kv-get", to_bytes(key));
  if (!reply) return Errc::io_error;
  auto box = crypto::parse_sealed_box(*reply);
  if (!box) {
    stats_.vetoed_replies++;
    return Errc::tamper_detected;
  }

  // Freshness: only the newest stored version of this key is acceptable.
  const auto latest = latest_nonce_.find(key);
  if (latest == latest_nonce_.end() || box->nonce != latest->second) {
    stats_.vetoed_replies++;
    return Errc::tamper_detected;
  }
  auto plain = aead_.open(*box, to_bytes(key));
  if (!plain) {
    stats_.vetoed_replies++;
    return Errc::tamper_detected;
  }
  return std::move(*plain);
}

}  // namespace lateral::toolbox
