#include "substrate/quote.h"

#include "util/wire.h"

namespace lateral::substrate {

Bytes Quote::signed_body() const {
  Bytes body;
  wire::ByteWriter w(body);
  w.blob32(wire::as_bytes(substrate_name));
  w.blob32(measurement);
  w.blob32(user_data);
  return body;
}

Bytes Quote::serialize() const {
  Bytes out = signed_body();
  wire::ByteWriter w(out);
  w.blob32(ek_pub.serialize());
  w.blob32(ek_cert);
  w.blob32(signature);
  return out;
}

Result<Quote> Quote::deserialize(BytesView in) {
  wire::ByteReader r(in);
  auto name = r.blob32();
  auto meas = r.blob32();
  auto user = r.blob32();
  auto ek_wire = r.blob32();
  auto cert = r.blob32();
  auto sig = r.blob32();
  if (!name || !meas || !user || !ek_wire || !cert || !sig ||
      !r.finish().ok())
    return Errc::invalid_argument;
  Quote q;
  if (meas->size() != q.measurement.size()) return Errc::invalid_argument;
  auto ek = crypto::RsaPublicKey::deserialize(*ek_wire);
  if (!ek) return ek.error();
  q.substrate_name = std::string(wire::as_text(*name));
  std::copy(meas->begin(), meas->end(), q.measurement.begin());
  q.user_data.assign(user->begin(), user->end());
  q.ek_pub = std::move(*ek);
  q.ek_cert.assign(cert->begin(), cert->end());
  q.signature.assign(sig->begin(), sig->end());
  return q;
}

Status Quote::verify(const crypto::RsaPublicKey& vendor_root) const {
  if (const Status s =
          crypto::rsa_verify(vendor_root, ek_pub.serialize(), ek_cert);
      !s.ok())
    return Errc::verification_failed;
  if (const Status s = crypto::rsa_verify(ek_pub, signed_body(), signature);
      !s.ok())
    return Errc::verification_failed;
  return Status::success();
}

Quote make_quote(const std::string& substrate_name,
                 const crypto::Digest& measurement, BytesView user_data,
                 const crypto::RsaKeyPair& ek, BytesView ek_cert) {
  Quote q;
  q.substrate_name = substrate_name;
  q.measurement = measurement;
  q.user_data.assign(user_data.begin(), user_data.end());
  q.ek_pub = ek.pub;
  q.ek_cert.assign(ek_cert.begin(), ek_cert.end());
  q.signature = crypto::rsa_sign(ek, q.signed_body());
  return q;
}

}  // namespace lateral::substrate
