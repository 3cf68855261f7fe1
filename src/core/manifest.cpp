#include "core/manifest.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace lateral::core {
namespace {

std::vector<std::string> tokenize_line(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token.starts_with('#')) break;  // comment until end of line
    tokens.push_back(token);
  }
  return tokens;
}

// Parse a full-token unsigned integer. Unlike std::stoul this never throws:
// malformed or out-of-range input becomes nullopt, which parse_manifests
// maps to Errc::invalid_argument like every other bad directive.
std::optional<std::uint64_t> parse_u64(const std::string& word) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(word.data(), word.data() + word.size(), value);
  if (ec != std::errc() || ptr != word.data() + word.size())
    return std::nullopt;
  return value;
}

// As parse_u64, for a 32-bit field: a value that does not fit is refused
// rather than narrowed.
std::optional<std::uint32_t> parse_u32(const std::string& word) {
  const auto value = parse_u64(word);
  if (!value || *value > std::numeric_limits<std::uint32_t>::max())
    return std::nullopt;
  return static_cast<std::uint32_t>(*value);
}

// A full-token finite decimal: trailing characters, overflow, inf and nan
// are refused, never thrown.
std::optional<double> parse_finite(const std::string& word) {
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(word.data(), word.data() + word.size(), value);
  if (ec != std::errc() || ptr != word.data() + word.size() ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::optional<substrate::AttackerModel> parse_attacker(
    const std::string& word) {
  using substrate::AttackerModel;
  if (word == "remote_network") return AttackerModel::remote_network;
  if (word == "local_software") return AttackerModel::local_software;
  if (word == "physical_bus") return AttackerModel::physical_bus;
  if (word == "physical_intrusion") return AttackerModel::physical_intrusion;
  return std::nullopt;
}

}  // namespace

Result<std::vector<Manifest>> parse_manifests(std::string_view text,
                                              std::string* error) {
  std::vector<Manifest> manifests;
  std::optional<Manifest> current;
  bool in_restart = false;  // inside a nested `restart { ... }` stanza
  bool in_trace = false;    // inside a nested `trace { ... }` stanza
  bool in_fleet = false;    // inside a nested `fleet { ... }` stanza
  bool in_update = false;   // inside a nested `update { ... }` stanza
  bool in_slo = false;      // inside a nested `slo { ... }` stanza

  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  // Every duplicate-stanza rejection routes through here so the diagnostic
  // names the offending component and stanza (satellite: duplicates used to
  // silently last-wins).
  const auto duplicate = [&](std::string_view stanza) -> Errc {
    if (error)
      *error = "line " + std::to_string(line_no) + ": component " +
               current->name + ": duplicate " + std::string(stanza) +
               " stanza";
    return Errc::invalid_argument;
  };
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize_line(line);
    if (tokens.empty()) continue;

    if (in_restart) {
      RestartPolicy& policy = *current->restart;
      const std::string& key = tokens[0];
      if (key == "}") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        in_restart = false;
      } else if (key == "max") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto max = parse_u32(tokens[1]);
        if (!max) return Errc::invalid_argument;
        policy.max_restarts = *max;
      } else if (key == "backoff") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto backoff = parse_u64(tokens[1]);
        if (!backoff) return Errc::invalid_argument;
        policy.backoff_cycles = *backoff;
      } else if (key == "escalate") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        if (tokens[1] == "degraded")
          policy.escalation = RestartPolicy::Escalation::degraded;
        else if (tokens[1] == "halted")
          policy.escalation = RestartPolicy::Escalation::halted;
        else
          return Errc::invalid_argument;
      } else {
        return Errc::invalid_argument;  // unknown restart directive
      }
      continue;
    }

    if (in_trace) {
      TracePolicy& policy = *current->trace;
      const std::string& key = tokens[0];
      if (key == "}") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        in_trace = false;
      } else if (key == "payload") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        policy.capture_payload = true;
      } else if (key == "observer") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        policy.observers.push_back(tokens[1]);
      } else {
        return Errc::invalid_argument;  // unknown trace directive
      }
      continue;
    }

    if (in_fleet) {
      FleetPolicy& policy = *current->fleet;
      const std::string& key = tokens[0];
      if (key == "}") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        in_fleet = false;
      } else if (key == "ticket_ttl") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto ttl = parse_u64(tokens[1]);
        if (!ttl) return Errc::invalid_argument;
        policy.ticket_ttl = *ttl;
      } else if (key == "cache") {
        if (tokens.size() != 3) return Errc::invalid_argument;
        const auto capacity = parse_u64(tokens[1]);
        const auto ttl = parse_u64(tokens[2]);
        if (!capacity || !ttl) return Errc::invalid_argument;
        policy.cache_capacity = static_cast<std::size_t>(*capacity);
        policy.cache_ttl = *ttl;
      } else if (key == "admit") {
        if (tokens.size() != 3) return Errc::invalid_argument;
        const auto rate = parse_u64(tokens[1]);
        const auto burst = parse_u64(tokens[2]);
        if (!rate || !burst) return Errc::invalid_argument;
        policy.admit_rate = *rate;
        policy.admit_burst = *burst;
      } else {
        return Errc::invalid_argument;  // unknown fleet directive
      }
      continue;
    }

    if (in_update) {
      UpdatePolicy& policy = *current->update;
      const std::string& key = tokens[0];
      if (key == "}") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        in_update = false;
      } else if (key == "key") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        policy.key = tokens[1];
      } else if (key == "slots") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto slots = parse_u32(tokens[1]);
        if (!slots) return Errc::invalid_argument;
        policy.slots = *slots;
      } else if (key == "probation") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto ticks = parse_u32(tokens[1]);
        if (!ticks) return Errc::invalid_argument;
        policy.probation_ticks = *ticks;
      } else {
        return Errc::invalid_argument;  // unknown update directive
      }
      continue;
    }

    if (in_slo) {
      SloPolicy& policy = *current->slo;
      const std::string& key = tokens[0];
      if (key == "}") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        in_slo = false;
      } else if (key == "p99") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto p99 = parse_u64(tokens[1]);
        if (!p99) return Errc::invalid_argument;
        policy.p99_cycles = *p99;
      } else if (key == "error_rate") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto permille = parse_u32(tokens[1]);
        if (!permille || *permille > 1000) return Errc::invalid_argument;
        policy.error_permille = *permille;
      } else if (key == "window") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto window = parse_u64(tokens[1]);
        if (!window) return Errc::invalid_argument;
        policy.window_cycles = *window;
      } else if (key == "burn_windows") {
        if (tokens.size() != 2) return Errc::invalid_argument;
        const auto burn = parse_u32(tokens[1]);
        if (!burn) return Errc::invalid_argument;
        policy.burn_windows = *burn;
      } else if (key == "restart") {
        if (tokens.size() != 1) return Errc::invalid_argument;
        policy.restart = true;
      } else {
        return Errc::invalid_argument;  // unknown slo directive
      }
      continue;
    }

    if (tokens[0] == "component") {
      if (current) return Errc::invalid_argument;  // nested component
      if (tokens.size() != 3 || tokens[2] != "{")
        return Errc::invalid_argument;
      current.emplace();
      current->name = tokens[1];
      continue;
    }
    if (tokens[0] == "}") {
      if (!current || tokens.size() != 1) return Errc::invalid_argument;
      manifests.push_back(std::move(*current));
      current.reset();
      continue;
    }
    if (!current) return Errc::invalid_argument;  // directive outside block

    const std::string& key = tokens[0];
    auto need_arg = [&]() -> bool { return tokens.size() == 2; };

    if (key == "kind") {
      if (!need_arg()) return Errc::invalid_argument;
      if (tokens[1] == "trusted")
        current->kind = substrate::DomainKind::trusted_component;
      else if (tokens[1] == "legacy")
        current->kind = substrate::DomainKind::legacy;
      else
        return Errc::invalid_argument;
    } else if (key == "substrate") {
      if (!need_arg()) return Errc::invalid_argument;
      current->substrate_name = tokens[1];
    } else if (key == "pages") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto pages = parse_u64(tokens[1]);
      if (!pages) return Errc::invalid_argument;
      current->memory_pages = static_cast<std::size_t>(*pages);
    } else if (key == "share") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto share = parse_u32(tokens[1]);
      if (!share) return Errc::invalid_argument;
      current->time_share_permille = *share;
    } else if (key == "shard") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto shards = parse_u64(tokens[1]);
      if (!shards) return Errc::invalid_argument;
      current->shards = static_cast<std::size_t>(*shards);
    } else if (key == "attacker") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto model = parse_attacker(tokens[1]);
      if (!model) return Errc::invalid_argument;
      current->attacker = *model;
    } else if (key == "channel") {
      if (!need_arg()) return Errc::invalid_argument;
      current->channels.push_back(tokens[1]);
    } else if (key == "region") {
      // region <peer> <bytes> [ro]
      if (tokens.size() != 3 && tokens.size() != 4)
        return Errc::invalid_argument;
      RegionDecl decl;
      decl.peer = tokens[1];
      const auto bytes = parse_u64(tokens[2]);
      if (!bytes || *bytes == 0) return Errc::invalid_argument;
      decl.bytes = static_cast<std::size_t>(*bytes);
      if (tokens.size() == 4) {
        if (tokens[3] != "ro") return Errc::invalid_argument;
        decl.perms = substrate::RegionPerms::read_only;
      }
      // One region per peer pair: a second declaration used to silently
      // lose (the composer wires only the first) — reject it instead.
      for (const RegionDecl& existing : current->regions)
        if (existing.peer == decl.peer)
          return duplicate("region " + decl.peer);
      current->regions.push_back(std::move(decl));
    } else if (key == "trusts") {
      if (!need_arg()) return Errc::invalid_argument;
      current->trusts.push_back(tokens[1]);
    } else if (key == "seal") {
      if (tokens.size() != 1) return Errc::invalid_argument;
      current->needs_sealing = true;
    } else if (key == "attest") {
      if (tokens.size() != 1) return Errc::invalid_argument;
      current->needs_attestation = true;
    } else if (key == "assets") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto assets = parse_finite(tokens[1]);
      if (!assets) return Errc::invalid_argument;
      current->asset_value = *assets;
    } else if (key == "loc") {
      if (!need_arg()) return Errc::invalid_argument;
      const auto loc = parse_u64(tokens[1]);
      if (!loc) return Errc::invalid_argument;
      current->loc = *loc;
    } else if (key == "restart") {
      if (tokens.size() != 2 || tokens[1] != "{")
        return Errc::invalid_argument;
      if (current->restart) return duplicate("restart");
      current->restart.emplace();  // defaults apply until overridden
      in_restart = true;
    } else if (key == "trace") {
      if (tokens.size() != 2 || tokens[1] != "{")
        return Errc::invalid_argument;
      if (current->trace) return duplicate("trace");
      current->trace.emplace();  // redacted defaults until overridden
      in_trace = true;
    } else if (key == "fleet") {
      if (tokens.size() != 2 || tokens[1] != "{")
        return Errc::invalid_argument;
      if (current->fleet) return duplicate("fleet");
      current->fleet.emplace();  // defaults apply until overridden
      in_fleet = true;
    } else if (key == "update") {
      if (tokens.size() != 2 || tokens[1] != "{")
        return Errc::invalid_argument;
      if (current->update) return duplicate("update");
      current->update.emplace();  // defaults apply until overridden
      in_update = true;
    } else if (key == "slo") {
      if (tokens.size() != 2 || tokens[1] != "{")
        return Errc::invalid_argument;
      if (current->slo) return duplicate("slo");
      current->slo.emplace();  // unchecked defaults until overridden
      in_slo = true;
    } else {
      return Errc::invalid_argument;  // unknown directive
    }
  }
  if (current) return Errc::invalid_argument;  // unterminated block
  return manifests;
}

std::string to_text(const std::vector<Manifest>& manifests) {
  std::ostringstream out;
  for (const Manifest& m : manifests) {
    out << "component " << m.name << " {\n";
    out << "  kind "
        << (m.kind == substrate::DomainKind::trusted_component ? "trusted"
                                                               : "legacy")
        << "\n";
    out << "  substrate " << m.substrate_name << "\n";
    out << "  pages " << m.memory_pages << "\n";
    out << "  share " << m.time_share_permille << "\n";
    if (m.shards != 1) out << "  shard " << m.shards << "\n";
    out << "  attacker " << substrate::attacker_model_name(m.attacker) << "\n";
    for (const std::string& channel : m.channels)
      out << "  channel " << channel << "\n";
    for (const RegionDecl& region : m.regions) {
      out << "  region " << region.peer << " " << region.bytes;
      if (region.perms == substrate::RegionPerms::read_only) out << " ro";
      out << "\n";
    }
    for (const std::string& peer : m.trusts) out << "  trusts " << peer << "\n";
    if (m.needs_sealing) out << "  seal\n";
    if (m.needs_attestation) out << "  attest\n";
    out << "  assets " << m.asset_value << "\n";
    out << "  loc " << m.loc << "\n";
    if (m.restart) {
      out << "  restart {\n";
      out << "    max " << m.restart->max_restarts << "\n";
      out << "    backoff " << m.restart->backoff_cycles << "\n";
      out << "    escalate " << escalation_name(m.restart->escalation) << "\n";
      out << "  }\n";
    }
    if (m.trace) {
      out << "  trace {\n";
      if (m.trace->capture_payload) out << "    payload\n";
      for (const std::string& observer : m.trace->observers)
        out << "    observer " << observer << "\n";
      out << "  }\n";
    }
    if (m.fleet) {
      out << "  fleet {\n";
      out << "    ticket_ttl " << m.fleet->ticket_ttl << "\n";
      out << "    cache " << m.fleet->cache_capacity << " "
          << m.fleet->cache_ttl << "\n";
      out << "    admit " << m.fleet->admit_rate << " " << m.fleet->admit_burst
          << "\n";
      out << "  }\n";
    }
    if (m.update) {
      out << "  update {\n";
      out << "    key " << m.update->key << "\n";
      out << "    slots " << m.update->slots << "\n";
      out << "    probation " << m.update->probation_ticks << "\n";
      out << "  }\n";
    }
    if (m.slo) {
      out << "  slo {\n";
      out << "    p99 " << m.slo->p99_cycles << "\n";
      out << "    error_rate " << m.slo->error_permille << "\n";
      out << "    window " << m.slo->window_cycles << "\n";
      out << "    burn_windows " << m.slo->burn_windows << "\n";
      if (m.slo->restart) out << "    restart\n";
      out << "  }\n";
    }
    out << "}\n";
  }
  return out.str();
}

std::vector<std::string> validate(const std::vector<Manifest>& manifests) {
  std::vector<std::string> problems;
  std::set<std::string> names;
  for (const Manifest& m : manifests) {
    if (m.name.empty()) problems.push_back("component with empty name");
    if (!names.insert(m.name).second)
      problems.push_back("duplicate component name: " + m.name);
    // '#' is the shard-expansion separator ("imap#2"): a user-written name
    // containing it would collide with (or masquerade as) an expanded shard.
    if (m.name.find('#') != std::string::npos)
      problems.push_back(m.name + ": '#' in component names is reserved for "
                                  "shard expansion");
    if (m.shards == 0)
      problems.push_back(m.name + ": shard count of zero (use 1 to disable)");
    if (m.memory_pages == 0)
      problems.push_back(m.name + ": zero memory pages");
    if (m.restart && m.restart->backoff_cycles == 0)
      problems.push_back(m.name + ": restart backoff of zero cycles");
    // A fleet frontend that can never admit anything is a misconfiguration,
    // not a policy: the gate would refuse every single request.
    if (m.fleet && (m.fleet->admit_rate == 0 || m.fleet->admit_burst == 0))
      problems.push_back(m.name + ": fleet admission rate/burst of zero");
    if (m.update) {
      if (m.update->key.empty())
        problems.push_back(m.name + ": update stanza with empty signing key");
      // With fewer than two slots there is no previous image to revert to;
      // the automatic-revert guarantee would be vacuous.
      if (m.update->slots < 2)
        problems.push_back(m.name + ": update stanza with fewer than 2 slots");
      if (m.update->probation_ticks == 0)
        problems.push_back(m.name + ": update probation of zero ticks");
      // Commit and revert are both supervisor restarts; an updatable
      // component without a restart stanza cannot be swapped or reverted.
      if (!m.restart)
        problems.push_back(m.name + ": update stanza without restart stanza");
    }
    if (m.slo) {
      if (m.slo->window_cycles == 0)
        problems.push_back(m.name + ": slo window of zero cycles");
      if (m.slo->burn_windows == 0)
        problems.push_back(m.name + ": slo burn_windows of zero");
      // An slo stanza that checks nothing is a misconfiguration, not a
      // policy: the watchdog would tick forever and never say anything.
      if (m.slo->p99_cycles == 0 && m.slo->error_permille >= 1000)
        problems.push_back(m.name + ": slo stanza with no objective (set p99 "
                                    "and/or error_rate)");
      // The watchdog only pulls triggers the recovery plan owns: escalation
      // is a kill_component that the restart stanza's machinery must catch.
      if (m.slo->restart && !m.restart)
        problems.push_back(m.name + ": slo restart without restart stanza");
    }
    // Programmatically-built manifests bypass the parser's duplicate-region
    // rejection; catch them here with the same component+stanza naming.
    std::set<std::string> region_peers;
    for (const RegionDecl& region : m.regions)
      if (!region_peers.insert(region.peer).second)
        problems.push_back(m.name + ": duplicate region stanza to peer " +
                           region.peer);
  }
  for (const Manifest& m : manifests) {
    for (const std::string& peer : m.channels) {
      if (!names.contains(peer))
        problems.push_back(m.name + ": channel to unknown component " + peer);
      if (peer == m.name)
        problems.push_back(m.name + ": channel to itself");
    }
    for (const RegionDecl& region : m.regions) {
      if (!names.contains(region.peer))
        problems.push_back(m.name + ": region to unknown component " +
                           region.peer);
      if (region.peer == m.name)
        problems.push_back(m.name + ": region to itself");
      // Descriptors travel over the channel; a region without one is
      // unusable and almost certainly a manifest mistake.
      if (region.peer != m.name &&
          std::find(m.channels.begin(), m.channels.end(), region.peer) ==
              m.channels.end())
        problems.push_back(m.name + ": region to " + region.peer +
                           " without a declared channel");
    }
    if (m.trace) {
      for (const std::string& observer : m.trace->observers) {
        if (!names.contains(observer))
          problems.push_back(m.name + ": trace observer unknown component " +
                             observer);
      }
    }
    for (const std::string& peer : m.trusts) {
      if (!names.contains(peer))
        problems.push_back(m.name + ": trusts unknown component " + peer);
      // Trusting a peer's replies only makes sense if you can talk to it.
      if (peer != m.name &&
          std::find(m.channels.begin(), m.channels.end(), peer) ==
              m.channels.end())
        problems.push_back(m.name + ": trusts " + peer +
                           " without a declared channel");
    }
  }
  return problems;
}

}  // namespace lateral::core
