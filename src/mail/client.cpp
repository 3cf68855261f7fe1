#include "mail/client.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "runtime/batch_channel.h"
#include "runtime/region_pool.h"

namespace lateral::mail {
namespace {

constexpr const char* kManifest = R"(
component ui {
  substrate SUB
  pages 2
  channel imap
  channel render
  channel addressbook
  channel storage
  channel input
  region storage 65536
  loc 2000
}
component imap {
  substrate SUB
  pages 2
  channel ui
  channel tls
  trace {
    payload
    observer ui
  }
  loc 8000
}
component tls {
  substrate SUB
  pages 2
  channel imap
  seal
  assets 10
  loc 4000
}
component render {
  substrate SUB
  pages 4
  channel ui
  assets 1
  loc 30000
}
component addressbook {
  substrate SUB
  pages 2
  channel ui
  assets 5
  loc 2000
}
component storage {
  substrate SUB
  pages 4
  channel ui
  seal
  assets 6
  loc 3000
}
component input {
  substrate SUB
  pages 2
  channel ui
  assets 4
  loc 3000
}
)";

std::string first_token(const std::string& s, std::size_t& offset) {
  while (offset < s.size() && s[offset] == ' ') ++offset;
  const std::size_t begin = offset;
  while (offset < s.size() && s[offset] != ' ' && s[offset] != '\n') ++offset;
  return s.substr(begin, offset - begin);
}

}  // namespace

Result<std::unique_ptr<MailClient>> MailClient::create(
    MailClientConfig config) {
  if (!config.substrate || !config.disk || !config.server)
    return Errc::invalid_argument;

  auto client = std::unique_ptr<MailClient>(new MailClient());
  client->config_ = config;

  // Substitute the actual substrate name into the manifest text.
  std::string text = kManifest;
  const std::string sub = config.substrate->info().name;
  for (std::size_t at = text.find("SUB"); at != std::string::npos;
       at = text.find("SUB"))
    text.replace(at, 3, sub);
  auto manifests = core::parse_manifests(text);
  if (!manifests) return manifests.error();

  core::SystemComposer composer({{sub, config.substrate}});
  auto assembly = composer.compose(*manifests);
  if (!assembly) return assembly.error();
  client->assembly_ = std::move(*assembly);
  core::Assembly& asm_ref = *client->assembly_;

  // --- tls: the only component with a path to the provider ----------------
  (void)asm_ref.set_behavior(
      "tls", [server = config.server](const substrate::Invocation& inv)
                 -> Result<Bytes> {
        // (A full deployment wraps this in net::SecureChannel; the trust
        // boundary — only tls touches the wire — is what matters here.)
        return to_bytes(server->handle(to_string(inv.data)));
      });

  // --- imap: protocol engine; its transport invokes tls -------------------
  client->imap_engine_ = std::make_unique<ImapClient>(
      [&asm_ref](const std::string& line) -> Result<std::string> {
        auto reply = asm_ref.invoke("imap", "tls", to_bytes(line));
        if (!reply) return reply.error();
        return to_string(*reply);
      });
  ImapClient* imap = client->imap_engine_.get();
  (void)asm_ref.set_behavior(
      "imap", [imap](const substrate::Invocation& inv) -> Result<Bytes> {
        const std::string request = to_string(inv.data);
        std::size_t offset = 0;
        const std::string command = first_token(request, offset);
        if (command == "LOGIN") {
          const std::string user = first_token(request, offset);
          const std::string token = first_token(request, offset);
          if (const Status s = imap->login(user, token); !s.ok())
            return s.error();
          return Bytes{};
        }
        if (command == "COUNT") {
          auto count = imap->select("INBOX");
          if (!count) return count.error();
          return to_bytes(std::to_string(*count));
        }
        if (command == "FETCH") {
          const std::size_t index = std::strtoull(
              first_token(request, offset).c_str(), nullptr, 10);
          auto message = imap->fetch(index);
          if (!message) return message.error();
          return to_bytes(message->to_wire());
        }
        if (command == "APPEND") {
          const std::string folder = first_token(request, offset);
          auto message = parse_message(request.substr(offset + 1));
          if (!message) return message.error();
          auto index = imap->append(folder, *message);
          if (!index) return index.error();
          return to_bytes(std::to_string(*index));
        }
        return Errc::invalid_argument;
      });

  // --- render ----------------------------------------------------------------
  HtmlRenderer* renderer = &client->renderer_;
  (void)asm_ref.set_behavior(
      "render", [renderer](const substrate::Invocation& inv) -> Result<Bytes> {
        return to_bytes(renderer->render(to_string(inv.data)));
      });

  // --- addressbook -------------------------------------------------------------
  AddressBook* book = &client->addressbook_;
  (void)asm_ref.set_behavior(
      "addressbook",
      [book](const substrate::Invocation& inv) -> Result<Bytes> {
        const std::string request = to_string(inv.data);
        std::size_t offset = 0;
        const std::string command = first_token(request, offset);
        if (command == "ADD") {
          const std::string name = first_token(request, offset);
          const std::string address = first_token(request, offset);
          if (const Status s = book->add(name, address); !s.ok())
            return s.error();
          return Bytes{};
        }
        if (command == "LOOKUP") {
          auto address = book->lookup(first_token(request, offset));
          if (!address) return address.error();
          return to_bytes(*address);
        }
        if (command == "COMPLETE") {
          std::string joined;
          for (const std::string& name :
               book->complete(first_token(request, offset))) {
            if (!joined.empty()) joined += ",";
            joined += name;
          }
          return to_bytes(joined);
        }
        return Errc::invalid_argument;
      });

  // --- input method ------------------------------------------------------------
  InputMethod* input = &client->input_method_;
  (void)asm_ref.set_behavior(
      "input", [input](const substrate::Invocation& inv) -> Result<Bytes> {
        const std::string request = to_string(inv.data);
        std::size_t offset = 0;
        const std::string command = first_token(request, offset);
        if (command == "LEARN") {
          input->learn(request.substr(offset));
          return Bytes{};
        }
        if (command == "SUGGEST") {
          std::string joined;
          for (const std::string& word :
               input->suggest(first_token(request, offset))) {
            if (!joined.empty()) joined += ",";
            joined += word;
          }
          return to_bytes(joined);
        }
        if (command == "CORRECT") {
          return to_bytes(input->autocorrect(first_token(request, offset)));
        }
        return Errc::invalid_argument;
      });

  // --- storage: VPFS-backed MailStore owned by the storage domain ----------
  const auto storage_component = *asm_ref.component("storage");
  auto fs = vpfs::Vpfs::format(*config.disk, *config.substrate,
                               storage_component->domain, "/mail",
                               config.vpfs_seed);
  if (!fs) return fs.error();
  client->store_ = std::make_unique<MailStore>(std::move(*fs));
  if (const Status s = client->store_->create_folder("INBOX"); !s.ok())
    return s.error();
  if (const Status s = client->store_->create_folder("Sent"); !s.ok())
    return s.error();
  MailStore* store = client->store_.get();
  substrate::IsolationSubstrate* storage_sub = config.substrate;
  const substrate::DomainId storage_domain = storage_component->domain;
  (void)asm_ref.set_behavior(
      "storage",
      [store, storage_sub,
       storage_domain](const substrate::Invocation& inv) -> Result<Bytes> {
        // Scatter-gather aware: an SG invocation carries the command inline
        // and the message body by descriptor — read it in place from the
        // grant region (constant cost) instead of receiving a copy.
        std::string request = to_string(inv.data);
        for (const substrate::RegionDescriptor& seg : inv.segments) {
          auto view = storage_sub->region_view(storage_domain, seg);
          if (!view) return view.error();
          request.append(view->begin(), view->end());
        }
        std::size_t offset = 0;
        const std::string command = first_token(request, offset);
        if (command == "STORE") {
          const std::string folder = first_token(request, offset);
          auto message = parse_message(request.substr(offset + 1));
          if (!message) return message.error();
          auto index = store->store(folder, *message);
          if (!index) return index.error();
          if (const Status s = store->sync(); !s.ok()) return s.error();
          return to_bytes(std::to_string(*index));
        }
        if (command == "LOAD") {
          const std::string folder = first_token(request, offset);
          const std::size_t index = std::strtoull(
              first_token(request, offset).c_str(), nullptr, 10);
          auto message = store->load(folder, index);
          if (!message) return message.error();
          return to_bytes(message->to_wire());
        }
        if (command == "COUNT") {
          auto count = store->count(first_token(request, offset));
          if (!count) return count.error();
          return to_bytes(std::to_string(*count));
        }
        if (command == "SEARCH") {
          const std::string folder = first_token(request, offset);
          auto hits = store->search(folder, first_token(request, offset));
          if (!hits) return hits.error();
          std::string joined;
          for (const std::size_t hit : *hits) {
            if (!joined.empty()) joined += ",";
            joined += std::to_string(hit);
          }
          return to_bytes(joined);
        }
        return Errc::invalid_argument;
      });

  return client;
}

Status MailClient::login(const std::string& user, const std::string& token) {
  auto reply =
      assembly_->invoke("ui", "imap", to_bytes("LOGIN " + user + " " + token));
  return reply ? Status::success() : Status(reply.error());
}

Result<std::size_t> MailClient::sync_inbox() {
  auto count_reply = assembly_->invoke("ui", "imap", to_bytes("COUNT"));
  if (!count_reply) return count_reply.error();
  const std::size_t remote =
      std::strtoull(to_string(*count_reply).c_str(), nullptr, 10);

  auto local_reply = assembly_->invoke("ui", "storage", to_bytes("COUNT INBOX"));
  if (!local_reply) return local_reply.error();
  std::size_t local =
      std::strtoull(to_string(*local_reply).c_str(), nullptr, 10);

  if (local >= remote) return local;

  // The hot path goes through the batching runtime: one boundary crossing
  // per burst of FETCHes and one per burst of STOREs, instead of two
  // crossings per message. The endpoints are the same manifest-declared
  // channels the per-call path uses — batching changes the cost, not the
  // policy — and they carry the channel epoch, so a supervised restart of
  // imap or storage mid-sync surfaces as stale_epoch completions here
  // rather than invocations silently hitting the reincarnated component.
  auto imap_ep = assembly_->endpoint("ui", "imap");
  if (!imap_ep) return imap_ep.error();
  auto storage_ep = assembly_->endpoint("ui", "storage");
  if (!storage_ep) return storage_ep.error();

  constexpr std::size_t kSyncBurst = 32;
  runtime::BatchChannel fetches(
      *imap_ep,
      {.depth = kSyncBurst, .hub = &runtime_metrics_, .label = "ui->imap"});
  runtime::BatchChannel stores(
      *storage_ep,
      {.depth = kSyncBurst, .hub = &runtime_metrics_, .label = "ui->storage"});

  // Message bodies ride the zero-copy data plane when the substrate can
  // realize the manifest-declared ui<->storage grant region: the STORE
  // command crosses inline, the body by descriptor, staged once into a
  // pool slot. On substrates without region support (TPM/fTPM) —
  // no_region_support from region_between — the copy path below moves each
  // body with exactly one copy (the flush's delivery of the moved buffer).
  std::optional<runtime::RegionPool> body_pool;
  if (auto region = assembly_->region_between("ui", "storage"); region) {
    const auto ui = *assembly_->component("ui");
    // The region's size comes from the substrate (which got it from the
    // manifest), so the pool stays in step with the `region storage <bytes>`
    // declaration instead of restating it.
    if (auto size = ui->substrate->region_size(*region); size)
      body_pool.emplace(*ui->substrate, ui->domain, *region, *size,
                        /*slot_bytes=*/2048);
  }

  while (local < remote) {
    const std::size_t burst = std::min(kSyncBurst, remote - local);
    std::vector<runtime::SubmissionId> fetch_ids;
    fetch_ids.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i) {
      auto id = fetches.submit(to_bytes("FETCH " + std::to_string(local + i)));
      if (!id) return id.error();
      fetch_ids.push_back(*id);
    }
    if (const Status s = fetches.flush(); !s.ok()) return s.error();

    std::vector<runtime::SubmissionId> store_ids;
    store_ids.reserve(burst);
    const Bytes store_header = to_bytes("STORE INBOX\n");
    for (const runtime::SubmissionId id : fetch_ids) {
      auto wire = fetches.wait(id);
      if (!wire) return wire.error();
      Result<runtime::SubmissionId> stored = Errc::no_region_support;
      if (body_pool) {
        stored = stores.submit_staged(*body_pool, store_header, *wire);
        // A body too big for a slot (or a momentarily drained pool) falls
        // back to the copy path for that one message — correctness never
        // depends on the fast path.
        if (!stored && stored.error() != Errc::invalid_argument &&
            stored.error() != Errc::exhausted)
          return stored.error();
      }
      if (!stored) {
        Bytes request = store_header;
        request.insert(request.end(), wire->begin(), wire->end());
        stored = stores.submit(std::move(request));
        if (!stored) return stored.error();
      }
      store_ids.push_back(*stored);
    }
    if (const Status s = stores.flush(); !s.ok()) return s.error();
    for (const runtime::SubmissionId id : store_ids) {
      auto stored = stores.wait(id);
      if (!stored) return stored.error();
      ++local;
    }
  }
  return local;
}

Result<std::string> MailClient::read_mail(std::size_t index) {
  auto wire = assembly_->invoke("ui", "storage",
                                to_bytes("LOAD INBOX " + std::to_string(index)));
  if (!wire) return wire.error();
  auto message = parse_message(to_string(*wire));
  if (!message) return message.error();
  auto rendered = assembly_->invoke("ui", "render", to_bytes(message->body));
  if (!rendered) return rendered.error();
  return message->from() + ": " + message->subject() + "\n" +
         to_string(*rendered);
}

Status MailClient::add_contact(const std::string& name,
                               const std::string& address) {
  auto reply = assembly_->invoke("ui", "addressbook",
                                 to_bytes("ADD " + name + " " + address));
  return reply ? Status::success() : Status(reply.error());
}

Result<std::vector<std::string>> MailClient::complete_recipient(
    const std::string& prefix) {
  auto reply =
      assembly_->invoke("ui", "addressbook", to_bytes("COMPLETE " + prefix));
  if (!reply) return reply.error();
  std::vector<std::string> names;
  std::string current;
  for (const std::uint8_t c : *reply) {
    if (c == ',') {
      names.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) names.push_back(current);
  return names;
}

Status MailClient::compose(const std::string& contact,
                           const std::string& subject,
                           const std::string& body) {
  auto address =
      assembly_->invoke("ui", "addressbook", to_bytes("LOOKUP " + contact));
  if (!address) return Status(address.error());

  const Message message =
      make_message("me@example", to_string(*address), subject, body);
  Bytes append = to_bytes("APPEND Sent\n" + message.to_wire());
  auto sent = assembly_->invoke("ui", "imap", append);
  if (!sent) return Status(sent.error());

  Bytes store = to_bytes("STORE Sent\n" + message.to_wire());
  auto stored = assembly_->invoke("ui", "storage", store);
  if (!stored) return Status(stored.error());

  // Feed the typed text to the personal dictionary.
  auto learned =
      assembly_->invoke("ui", "input", to_bytes("LEARN " + subject + " " + body));
  return learned ? Status::success() : Status(learned.error());
}

Result<std::vector<std::string>> MailClient::suggest_word(
    const std::string& prefix) {
  auto reply = assembly_->invoke("ui", "input", to_bytes("SUGGEST " + prefix));
  if (!reply) return reply.error();
  std::vector<std::string> words;
  std::string current;
  for (const std::uint8_t c : *reply) {
    if (c == ',') {
      words.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) words.push_back(current);
  return words;
}

Result<std::string> MailClient::autocorrect(const std::string& word) {
  auto reply = assembly_->invoke("ui", "input", to_bytes("CORRECT " + word));
  if (!reply) return reply.error();
  return to_string(*reply);
}

Result<std::vector<std::size_t>> MailClient::search(const std::string& needle) {
  auto reply =
      assembly_->invoke("ui", "storage", to_bytes("SEARCH INBOX " + needle));
  if (!reply) return reply.error();
  std::vector<std::size_t> hits;
  std::string current;
  for (const std::uint8_t c : *reply) {
    if (c == ',') {
      hits.push_back(std::strtoull(current.c_str(), nullptr, 10));
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty())
    hits.push_back(std::strtoull(current.c_str(), nullptr, 10));
  return hits;
}

Status MailClient::flag_renderer_compromised() {
  return assembly_->compromise("render");
}

}  // namespace lateral::mail
