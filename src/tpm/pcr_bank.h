// Platform Configuration Register bank — the TPM's measurement log
// structure, shared between the discrete-chip TPM substrate and the
// software fTPM (paper §II-C: "Microsoft Surface tablets implement TPM
// functionality not using dedicated TPM security chips, but as software
// running within TrustZone").
//
// Semantics: extend-only accumulators. pcr' = H(pcr || digest); there is no
// operation that restores a previous value, which is what makes the boot
// log trustworthy.
#pragma once

#include <array>
#include <vector>

#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "util/result.h"
#include "util/wire.h"

namespace lateral::tpm {

constexpr std::size_t kNumPcrs = 24;
/// The DRTM PCR that late launch resets and extends (PCR17 on real HW).
constexpr std::size_t kDrtmPcr = 17;

class PcrBank {
 public:
  Status extend(std::size_t index, const crypto::Digest& digest) {
    if (index >= kNumPcrs) return Errc::invalid_argument;
    pcrs_[index] = crypto::Sha256::hash2(crypto::digest_view(pcrs_[index]),
                                         crypto::digest_view(digest));
    return Status::success();
  }

  Result<crypto::Digest> read(std::size_t index) const {
    if (index >= kNumPcrs) return Errc::invalid_argument;
    return pcrs_[index];
  }

  /// Only the DRTM machinery may reset, and only the DRTM PCR.
  Status drtm_reset() {
    pcrs_[kDrtmPcr] = crypto::Digest{};
    return Status::success();
  }

  /// Composite hash over a selection (what quotes sign and sealing binds).
  crypto::Digest composite(const std::vector<std::size_t>& selection) const {
    crypto::Sha256 ctx;
    for (const std::size_t index : selection) {
      if (index >= kNumPcrs) continue;
      const std::uint8_t idx_byte = static_cast<std::uint8_t>(index);
      ctx.update(BytesView(&idx_byte, 1));
      ctx.update(crypto::digest_view(pcrs_[index]));
    }
    return ctx.finish();
  }

  /// Validate a selection without computing anything.
  static Status check_selection(const std::vector<std::size_t>& selection) {
    for (const std::size_t index : selection)
      if (index >= kNumPcrs) return Errc::invalid_argument;
    return Status::success();
  }

 private:
  std::array<crypto::Digest, kNumPcrs> pcrs_{};
};

/// A blob sealed to a PCR selection, as the TPM and the fTPM store it:
/// [u8 n | n x u8 PCR index | sealed box].
struct PcrSealed {
  std::vector<std::size_t> selection;
  crypto::SealedBox box;
};

inline Bytes encode_pcr_sealed(const std::vector<std::size_t>& selection,
                               const crypto::SealedBox& box) {
  Bytes out;
  wire::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(selection.size()));
  for (const std::size_t index : selection)
    w.u8(static_cast<std::uint8_t>(index));
  crypto::append_sealed_box(out, box);
  return out;
}

/// Errc::invalid_argument on a short blob or an index outside the bank.
inline Result<PcrSealed> decode_pcr_sealed(BytesView sealed) {
  wire::ByteReader r(sealed);
  auto count = r.u8();
  if (!count) return count.error();
  auto indices = r.bytes(*count);
  if (!indices) return indices.error();
  auto box = crypto::parse_sealed_box(r.rest());
  if (!box) return box.error();
  PcrSealed out{.selection = {}, .box = std::move(*box)};
  for (const std::uint8_t index : *indices) {
    if (index >= kNumPcrs) return Errc::invalid_argument;
    out.selection.push_back(index);
  }
  return out;
}

}  // namespace lateral::tpm
