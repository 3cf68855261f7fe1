// Rig helpers shared by the workloads: the substrate registry, the device
// vendor, machines and domain specs, and the anonymizer's ack format.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/standard_registry.h"
#include "hw/machine.h"
#include "substrate/substrate.h"
#include "util/types.h"

namespace perfbench {

using namespace lateral;

inline substrate::SubstrateRegistry& registry() {
  static substrate::SubstrateRegistry r = core::make_standard_registry();
  return r;
}

/// The device vendor. Its seed is fixed, not the workload seed: keys are
/// the fleet's hardware, the seed only shapes the inputs. 512-bit keys, as
/// in the figure benches.
constexpr std::size_t kVendorKeyBits = 512;

inline std::unique_ptr<hw::Vendor> make_vendor() {
  return std::make_unique<hw::Vendor>(/*seed=*/0xBE7C4, kVendorKeyBits);
}

/// Simulated machines get 1 MiB of DRAM, not the default 16 MiB: no
/// workload maps more than a few hundred KiB, and zero-filling 16 MiB per
/// machine made set-up time mostly page faults, whose cost depends on how
/// the host backs this process's memory (NOTES.md, "Set-up"). The cost
/// model does not depend on the DRAM size.
inline std::unique_ptr<hw::Machine> make_machine(hw::Vendor& vendor,
                                                 const std::string& name) {
  hw::MachineConfig config;
  config.name = name;
  config.dram_bytes = 1 << 20;
  return std::make_unique<hw::Machine>(config, vendor,
                                       to_bytes("perfbench-rom"));
}

inline substrate::DomainSpec tc_spec(const std::string& name) {
  substrate::DomainSpec spec;
  spec.name = name;
  spec.kind = substrate::DomainKind::trusted_component;
  spec.image = {name, to_bytes("code:" + name)};
  spec.memory_pages = 2;
  return spec;
}

inline substrate::DomainSpec legacy_spec(const std::string& name) {
  auto spec = tc_spec(name);
  spec.kind = substrate::DomainKind::legacy;
  spec.memory_pages = 4;
  return spec;
}

/// The anonymizer's ack for one reading: household and bucket, big-endian.
/// Each ack names its own reading, so a misrouted or stale reply fails the
/// check instead of passing as "some ack".
inline Bytes encode_ack(std::uint64_t household, std::uint64_t bucket) {
  Bytes out(16);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(household >> (56 - 8 * i));
    out[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(bucket >> (56 - 8 * i));
  }
  return out;
}

}  // namespace perfbench
