#include "tpm/command_set.h"

namespace lateral::tpm {

CommandSet::CommandSet(hw::Machine& machine, substrate::SubstrateConfig config,
                       hw::Range frames, Prices prices)
    : PagedSubstrate(machine, std::move(config), frames), prices_(prices) {
  (void)pcrs_.extend(0, machine_.boot_rom().measurement());
}

Status CommandSet::pcr_extend(std::size_t index, const crypto::Digest& digest) {
  machine_.advance(prices_.command);
  return pcrs_.extend(index, digest);
}

Result<crypto::Digest> CommandSet::pcr_read(std::size_t index) const {
  return pcrs_.read(index);
}

crypto::Digest CommandSet::pcr_composite(
    const std::vector<std::size_t>& selection) const {
  return pcrs_.composite(selection);
}

Result<substrate::Quote> CommandSet::quote_pcrs(
    const std::vector<std::size_t>& selection, BytesView nonce) {
  if (const Status s = PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(prices_.command + prices_.quote_signature);
  return substrate::make_quote(info().name, pcrs_.composite(selection), nonce,
                               machine_.fuses().endorsement_key(),
                               machine_.fuses().endorsement_cert());
}

Result<Bytes> CommandSet::seal_to_pcrs(
    const std::vector<std::size_t>& selection, BytesView plaintext) {
  if (const Status s = PcrBank::check_selection(selection); !s.ok())
    return s.error();
  machine_.advance(prices_.command);

  // Sealing key binds device key and current PCR composite.
  const crypto::Aead aead = sealing_aead(pcrs_.composite(selection));
  return encode_pcr_sealed(selection,
                           aead.seal(seal_pcr_nonce_++, {}, plaintext));
}

Result<Bytes> CommandSet::unseal_pcrs(BytesView sealed) {
  machine_.advance(prices_.command);
  auto parsed = decode_pcr_sealed(sealed);
  if (!parsed) return parsed.error();
  const crypto::Aead aead = sealing_aead(pcrs_.composite(parsed->selection));
  auto plain = aead.open(parsed->box, {});
  if (!plain) return Errc::verification_failed;  // PCR state changed
  return std::move(*plain);
}

Status CommandSet::nv_define(const std::string& name) {
  machine_.advance(prices_.command);
  return nv_.define(name);
}

Result<std::uint64_t> CommandSet::nv_read(const std::string& name) {
  machine_.advance(prices_.command);
  return nv_.read(name);
}

Result<std::uint64_t> CommandSet::nv_increment(const std::string& name) {
  machine_.advance(prices_.command);
  return nv_.increment(name);
}

Cycles CommandSet::attest_cost() const { return prices_.command; }

}  // namespace lateral::tpm
