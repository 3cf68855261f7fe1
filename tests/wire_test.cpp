// Wire goldens and truncation properties for every codec that crosses a
// trust boundary: quotes, keys, audit segments, fleet resumption, readings,
// the async RPC layer, trace contexts, sealed blobs, tickets and login
// tokens. The goldens pin the exact bytes each encoder produces on seeded
// inputs; the truncation property feeds the same encodings, cut short, to
// their decoders.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "core/attestation.h"
#include "crypto/sha256.h"
#include "fleet/fleet_client.h"
#include "fleet/protocol.h"
#include "fleet/ticket.h"
#include "health/audit.h"
#include "microkernel/microkernel.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "test_support.h"
#include "toolbox/anonymizer.h"
#include "toolbox/authenticator.h"
#include "tpm/tpm.h"
#include "trace/trace.h"
#include "util/hex.h"

namespace lateral {
namespace {

std::string pin(BytesView b) {
  if (b.size() <= 64) return util::to_hex(b);
  return "sha256:" + util::to_hex(crypto::digest_view(crypto::Sha256::hash(b)));
}

Bytes pattern(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 37 + salt);
  return b;
}

crypto::Digest digest_of(std::string_view s) {
  return crypto::Sha256::hash(to_bytes(s));
}

const trace::TraceContext kGoldenCtx{.trace_id = 0x0102030405060708ULL,
                                     .parent_span = 0x0a0b0c0dU,
                                     .flags = trace::TraceContext::kSampled};

/// An unattested handshake between two seeded endpoints.
struct SeededChannel {
  explicit SeededChannel(const std::string& seed)
      : client(net::Role::initiator, to_bytes(seed + "-i"), std::nullopt,
               std::nullopt),
        server(net::Role::responder, to_bytes(seed + "-r"), std::nullopt,
               std::nullopt) {
    auto msg1 = client.start();
    auto msg2 = server.handle_msg1(*msg1);
    auto msg3 = client.handle_msg2(*msg2);
    if (!server.handle_msg3(*msg3).ok()) throw Error("seeded handshake");
  }
  net::SecureChannelEndpoint client;
  net::SecureChannelEndpoint server;
};

/// Everything the goldens are minted on, built fresh per test (with its own
/// vendor, so no earlier test has drawn device keys from it) so that every
/// encoder starts from the same seeded state.
struct GoldenWorld {
  GoldenWorld()
      : vendor(/*seed=*/0x90d3, /*key_bits=*/512),
        machine(std::make_unique<hw::Machine>(
            hw::MachineConfig{.name = "wire-golden"}, vendor,
            to_bytes("boot-rom-v1"))),
        kernel(*machine, substrate::SubstrateConfig{}),
        tpm(*machine, substrate::SubstrateConfig{}),
        sgx(*test::shared_registry().create("sgx", *machine)),
        tz(*test::shared_registry().create("trustzone", *machine)),
        issuer(to_bytes("golden-ticket-seed"), 1000),
        verifier(to_bytes("golden-verifier")),
        auth(verifier, "metering", to_bytes("golden-token-key")) {
    sealer = *kernel.create_domain(test::tc_spec("sealer"));
    prover = *sgx->create_domain(test::tc_spec("prover"));
    device = *tz->create_domain(test::tc_spec("metering"));
    verifier.add_trusted_root(vendor.root_public_key());
    verifier.expect_measurement(
        "metering", test::tc_spec("metering").image.measurement());
  }

  Bytes quote() { return sgx->attest(prover, to_bytes("ud"))->serialize(); }

  Bytes segment() {
    health::AuditLog log(machine.get());
    log.append(health::AuditKind::attestation_failed, "meter-1",
               Errc::verification_failed, "bad quote");
    log.append(health::AuditKind::ticket_rejected, "meter-2",
               Errc::ticket_replayed, "resume");
    log.append(health::AuditKind::slo_breach, "utility");
    return log.segment(0, *sgx, prover)->serialize();
  }

  Bytes seal() { return *kernel.seal(sealer, to_bytes("sealed-secret")); }

  Bytes tpm_seal() {
    return *tpm.seal_to_pcrs({0, 17}, to_bytes("pcr-bound"));
  }

  Bytes ticket() { return issuer.mint(digest_of("client"), 50).wire; }

  Bytes token() {
    const Bytes nonce = auth.begin();
    auto quote = core::respond_to_challenge(
        *tz, device, nonce, to_bytes("lateral.toolbox.login.v1"));
    return auth.complete(*quote, nonce)->token;
  }

  hw::Vendor vendor;
  std::unique_ptr<hw::Machine> machine;
  microkernel::Microkernel kernel;
  tpm::Tpm tpm;
  std::unique_ptr<substrate::IsolationSubstrate> sgx;
  std::unique_ptr<substrate::IsolationSubstrate> tz;
  fleet::TicketIssuer issuer;
  core::AttestationVerifier verifier;
  toolbox::PasswordlessAuthenticator auth;
  substrate::DomainId sealer = 0;
  substrate::DomainId prover = 0;
  substrate::DomainId device = 0;
};

health::AuditRecord golden_record() {
  return health::AuditRecord{.seq = 3,
                             .at = 0x1122,
                             .kind = health::AuditKind::ticket_rejected,
                             .errc = Errc::ticket_replayed,
                             .component = "meter-7",
                             .detail = "resume"};
}

health::AuditSeal golden_seal() {
  return health::AuditSeal{
      .epoch = 2, .first_seq = 1, .last_seq = 3, .head = digest_of("head")};
}

Bytes golden_resume() {
  return fleet::encode_resume(pattern(5, 1), pattern(32, 2), pattern(32, 3));
}

Bytes golden_grant() {
  return fleet::encode_grant(pattern(7, 4), pattern(32, 5));
}

Bytes golden_reading() {
  return toolbox::encode_reading(
      toolbox::Reading{.household = 42, .bucket = 7, .kwh = 1.234});
}

Bytes golden_trace_context() {
  Bytes out;
  kGoldenCtx.encode(out);
  return out;
}

/// The plaintext of the async request `echo("ping")` under kGoldenCtx, as
/// the proxy seals it.
Bytes golden_async_request() {
  SeededChannel channel("golden-async");
  Bytes plain;
  runtime::AsyncRemoteProxy proxy(
      channel.client,
      [&](const std::vector<Bytes>& records) -> Result<std::vector<Bytes>> {
        plain = *channel.server.open_record(records.at(0));
        return Errc::io_error;
      });
  trace::TraceScope scope(kGoldenCtx);
  (void)proxy.call("echo", to_bytes("ping"));
  return plain;
}

/// The plaintext of the dispatcher's reply to golden_async_request().
Bytes golden_async_reply() {
  SeededChannel channel("golden-async");
  runtime::AsyncRemoteDispatcher dispatcher(channel.server);
  (void)dispatcher.register_method(
      "echo", [](BytesView request) -> Result<Bytes> {
        return Bytes(request.begin(), request.end());
      });
  auto replies = dispatcher.handle_burst(
      {*channel.client.seal_record(golden_async_request())});
  return *channel.client.open_record(replies->at(0));
}

// ---------------------------------------------------------------------------
// Goldens, recorded before the codecs moved behind one reader and writer.

TEST(WireGolden, QuoteAndRsaPublicKey) {
  GoldenWorld world;
  EXPECT_EQ(pin(world.quote()),
            "sha256:d98596f42de60e2ad35478be3fb1606f"
            "7d4515fbfc33269d329f830f6957a877");
  EXPECT_EQ(pin(world.vendor.root_public_key().serialize()),
            "sha256:357605e1a4606f5d5d1711bddce23286"
            "040ee7495cc9b9106bce0d89c6efba79");
}

TEST(WireGolden, AuditRecordSealAndSegment) {
  EXPECT_EQ(pin(golden_record().encode()),
            "00000000000000030000000000001122031600076d657465722d370006726573"
            "756d65");
  EXPECT_EQ(pin(golden_seal().encode()),
            "0000000000000002000000000000000100000000000000039f2e6d33a3717ee8"
            "26353a404ba4618d1aeeb6879ad7936bce8ed5f46814924d");
  GoldenWorld world;
  EXPECT_EQ(pin(world.segment()),
            "sha256:f3057c5a3da9d2e962df23473e4e6d62"
            "8aeae369e830fcc705b46166897a16bb");
}

TEST(WireGolden, FleetResumeGrantAndReading) {
  EXPECT_EQ(pin(golden_resume()),
            "sha256:3cd1b4803432e30cbaaa8414bdf00972"
            "5858e8836e37130cae2e9941455130de");
  EXPECT_EQ(pin(golden_grant()),
            "0000000704294e7398bde2052a4f7499bee3082d52779cc1e60b30557a9fc4e9"
            "0e33587da2c7ec11365b80");
  EXPECT_EQ(pin(golden_reading()),
            "000000000000002a000000000000000700000000000004d2");
}

TEST(WireGolden, AsyncRequestReplyAndTraceContext) {
  EXPECT_EQ(pin(golden_async_request()),
            "0000000101020304050607080a0b0c0d0000000100046563686f70696e67");
  EXPECT_EQ(pin(golden_async_reply()),
            "000000010070696e67");
  EXPECT_EQ(pin(golden_trace_context()),
            "01020304050607080a0b0c0d00000001");
}

TEST(WireGolden, SealedBlobsTicketAndToken) {
  GoldenWorld world;
  EXPECT_EQ(pin(world.seal()),
            "0000000000000001886991b8270d450b462810a3e112d72280e8e49357e5c9f1"
            "798ca195bc");
  EXPECT_EQ(pin(world.tpm_seal()),
            "020011000000000000000119489161884dc27d2fd4e7c9668bb140eb08331cee"
            "a0f12762");
  EXPECT_EQ(pin(world.ticket()),
            "sha256:065d7a031d0ddb0c3f9e731350a71466"
            "f9749866ae419b633f2bebc9e9923398");
  EXPECT_EQ(pin(world.token()),
            "0000000000000001a39562bc045010f99119574bc6724e06921d79bd6da6f61e"
            "467663487359779a");
}

// ---------------------------------------------------------------------------
// Truncation: each golden encoding, cut short anywhere inside a fixed-width
// or length-prefixed field, is refused with the Errc its decoder documents
// and never throws; a self-delimiting encoding also refuses one extra byte.

struct Encoding {
  std::string name;
  Bytes wire;
  std::function<Errc(BytesView)> decode;  // Errc::ok when accepted
  std::set<Errc> refusals;
  std::size_t header;  // every cut shorter than this must be refused
  bool self_delimiting;
};

void expect_refused(const Encoding& e, BytesView cut) {
  Errc got = Errc::ok;
  EXPECT_NO_THROW(got = e.decode(cut)) << e.name << " len=" << cut.size();
  EXPECT_TRUE(e.refusals.count(got) == 1)
      << e.name << " len=" << cut.size() << ": " << errc_name(got);
}

TEST(WireFormatProperty, GoldenTruncationsAllRejected) {
  GoldenWorld world;
  SeededChannel request_channel("golden-async");
  runtime::AsyncRemoteDispatcher dispatcher(request_channel.server);
  ASSERT_TRUE(dispatcher
                  .register_method("echo",
                                   [](BytesView request) -> Result<Bytes> {
                                     return Bytes(request.begin(),
                                                  request.end());
                                   })
                  .ok());
  // The dispatcher's verdict on a request plaintext, read off its reply.
  auto dispatch = [&](BytesView plain) -> Errc {
    auto replies =
        dispatcher.handle_burst({*request_channel.client.seal_record(plain)});
    const Bytes reply = *request_channel.client.open_record(replies->at(0));
    return static_cast<Errc>(reply.at(4));
  };
  // The proxy's verdict on a reply plaintext to the call it just sent.
  SeededChannel reply_channel("golden-async");
  Bytes next_reply;
  runtime::AsyncRemoteProxy proxy(
      reply_channel.client,
      [&](const std::vector<Bytes>&) -> Result<std::vector<Bytes>> {
        return std::vector<Bytes>{
            *reply_channel.server.seal_record(next_reply)};
      });
  auto collect = [&](BytesView plain) -> Errc {
    next_reply.assign(plain.begin(), plain.end());
    return proxy.call("echo", to_bytes("ping")).error();
  };

  const std::vector<Encoding> encodings = {
      {"quote", world.quote(),
       [](BytesView v) { return substrate::Quote::deserialize(v).error(); },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"rsa_public_key", world.vendor.root_public_key().serialize(),
       [](BytesView v) {
         return crypto::RsaPublicKey::deserialize(v).error();
       },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"audit_record", golden_record().encode(),
       [](BytesView v) {
         std::size_t offset = 0;
         return health::AuditRecord::decode(v, &offset).error();
       },
       {Errc::invalid_argument}, SIZE_MAX, false},
      {"audit_seal", golden_seal().encode(),
       [](BytesView v) { return health::AuditSeal::decode(v).error(); },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"audit_segment", world.segment(),
       [](BytesView v) { return health::AuditSegment::deserialize(v).error(); },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"resume", golden_resume(),
       [](BytesView v) { return fleet::decode_resume(v).error(); },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"grant", golden_grant(),
       [](BytesView v) { return fleet::decode_grant(v).error(); },
       {Errc::invalid_argument}, 4 + 7, false},
      {"reading", golden_reading(),
       [](BytesView v) { return toolbox::decode_reading(v).error(); },
       {Errc::invalid_argument}, SIZE_MAX, true},
      {"async_request", golden_async_request(), dispatch,
       {Errc::invalid_argument}, 4 + trace::kTraceContextWireBytes + 2 + 4,
       false},
      {"async_reply", golden_async_reply(), collect, {Errc::io_error}, 4 + 1,
       false},
      {"substrate_seal", world.seal(),
       [&](BytesView v) {
         return world.kernel.unseal(world.sealer, v).error();
       },
       {Errc::invalid_argument, Errc::verification_failed}, SIZE_MAX, true},
      {"tpm_seal", world.tpm_seal(),
       [&](BytesView v) { return world.tpm.unseal_pcrs(v).error(); },
       {Errc::invalid_argument, Errc::verification_failed}, SIZE_MAX, true},
      {"ticket", world.ticket(),
       [&](BytesView v) { return world.issuer.redeem(v, 60).error(); },
       {Errc::verification_failed}, SIZE_MAX, true},
      {"token", world.token(),
       [&](BytesView v) { return world.auth.validate(v).error(); },
       {Errc::verification_failed}, SIZE_MAX, true},
  };
  for (const Encoding& e : encodings) {
    ASSERT_EQ(e.decode(e.wire), Errc::ok) << e.name;
    for (std::size_t len = 0; len < std::min(e.header, e.wire.size()); ++len)
      expect_refused(e, BytesView(e.wire).first(len));
    if (e.self_delimiting) {
      Bytes longer = e.wire;
      longer.push_back(0);
      expect_refused(e, longer);
    }
  }
}

// ---------------------------------------------------------------------------
// An error byte from a peer past the last Errc enumerator means one thing on
// every path: invalid_argument.

TEST(WireFormatProperty, OutOfRangeErrorByteReadsAsInvalidArgument) {
  constexpr std::uint8_t kBogus = 0xEE;
  // Synchronous RPC reply.
  EXPECT_EQ(net::decode_rpc_reply(Bytes{kBogus}).error(),
            Errc::invalid_argument);

  // Async reply to call 1.
  SeededChannel channel("golden-async");
  runtime::AsyncRemoteProxy proxy(
      channel.client,
      [&](const std::vector<Bytes>&) -> Result<std::vector<Bytes>> {
        return std::vector<Bytes>{
            *channel.server.seal_record(Bytes{0, 0, 0, 1, kBogus})};
      });
  EXPECT_EQ(proxy.call("echo", {}).error(), Errc::invalid_argument);

  // A fleet server's reject frame.
  net::SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("utility").ok());
  fleet::FleetClientConfig config;
  config.endpoint = "meter";
  config.server_endpoint = "utility";
  config.network = &network;
  config.drive = [&network] {
    (void)network.send(
        "utility", "meter",
        Bytes{static_cast<std::uint8_t>(fleet::FrameKind::reject), kBogus});
  };
  fleet::FleetClient client(std::move(config));
  EXPECT_EQ(client.connect().error(), Errc::invalid_argument);

  // An audit record's kind or errc byte.
  Bytes record = golden_record().encode();
  record[17] = kBogus;
  std::size_t offset = 0;
  EXPECT_EQ(health::AuditRecord::decode(record, &offset).error(),
            Errc::invalid_argument);
  record = golden_record().encode();
  record[16] = kBogus;
  offset = 0;
  EXPECT_EQ(health::AuditRecord::decode(record, &offset).error(),
            Errc::invalid_argument);
}

}  // namespace
}  // namespace lateral
