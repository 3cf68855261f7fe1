// Untrusted network + SecureChannel: handshake with one-way and mutual
// attestation, MITM splice refusal, record tamper/replay/reorder detection.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "crypto/sha256.h"
#include "fleet/protocol.h"
#include "fleet/ticket.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "test_support.h"
#include "util/hex.h"

namespace lateral::net {
namespace {

TEST(SimNetwork, DeliversDatagrams) {
  SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("meter").ok());
  ASSERT_TRUE(network.register_endpoint("utility").ok());
  ASSERT_TRUE(network.send("meter", "utility", to_bytes("reading")).ok());
  auto datagram = network.receive("utility");
  ASSERT_TRUE(datagram.ok());
  EXPECT_EQ(datagram->from, "meter");
  EXPECT_EQ(to_string(datagram->payload), "reading");
  EXPECT_EQ(network.receive("utility").error(), Errc::would_block);
}

TEST(SimNetwork, UnknownEndpointsRejected) {
  SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("a").ok());
  EXPECT_FALSE(network.send("a", "ghost", to_bytes("x")).ok());
  EXPECT_FALSE(network.send("ghost", "a", to_bytes("x")).ok());
  EXPECT_FALSE(network.receive("ghost").ok());
  EXPECT_FALSE(network.register_endpoint("a").ok());
}

TEST(SimNetwork, TampererCanDropAndModify) {
  SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("a").ok());
  ASSERT_TRUE(network.register_endpoint("b").ok());
  network.set_tamperer([](const std::string&, const std::string&,
                          BytesView payload) -> std::optional<Bytes> {
    if (payload.size() == 4) return std::nullopt;  // drop short ones
    Bytes modified(payload.begin(), payload.end());
    modified[0] ^= 0xFF;
    return modified;
  });
  ASSERT_TRUE(network.send("a", "b", to_bytes("drop")).ok());
  EXPECT_EQ(network.receive("b").error(), Errc::would_block);
  ASSERT_TRUE(network.send("a", "b", to_bytes("modify-me")).ok());
  auto datagram = network.receive("b");
  ASSERT_TRUE(datagram.ok());
  EXPECT_NE(to_string(datagram->payload), "modify-me");
  EXPECT_EQ(network.stats().dropped, 1u);
  EXPECT_EQ(network.stats().modified, 1u);
}

TEST(SimNetwork, InjectionForgesSource) {
  SimNetwork network;
  ASSERT_TRUE(network.register_endpoint("victim").ok());
  ASSERT_TRUE(network.inject("trusted-peer", "victim", to_bytes("evil")).ok());
  auto datagram = network.receive("victim");
  ASSERT_TRUE(datagram.ok());
  // The "from" field is attacker-chosen — claimed identity means nothing.
  EXPECT_EQ(datagram->from, "trusted-peer");
}

TEST(SimNetwork, EndpointIdsAreDenseAndResolveByName) {
  SimNetwork network;
  for (EndpointId expected = 0; expected < 5; ++expected) {
    auto id = network.register_endpoint("ep-" + std::to_string(expected));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, expected);
  }
  EXPECT_EQ(network.register_endpoint("ep-3").error(), Errc::invalid_argument);
  EXPECT_EQ(network.register_endpoint("").error(), Errc::invalid_argument);
  EXPECT_EQ(network.resolve("ep-3").value(), 3u);
  EXPECT_EQ(network.resolve("ghost").error(), Errc::invalid_argument);
  // A refused registration hands out no id: the next one is still 5.
  EXPECT_EQ(network.register_endpoint("ep-5").value(), 5u);
}

TEST(SimNetwork, UnknownIdsRejected) {
  SimNetwork network;
  const EndpointId a = network.register_endpoint("a").value();
  EXPECT_EQ(network.send(a, 1, to_bytes("x")).error(), Errc::invalid_argument);
  EXPECT_EQ(network.send(1, a, to_bytes("x")).error(), Errc::invalid_argument);
  EXPECT_EQ(network.send(a, kNoEndpoint, to_bytes("x")).error(),
            Errc::invalid_argument);
  EXPECT_EQ(network.receive(1).error(), Errc::invalid_argument);
  EXPECT_EQ(network.receive(kNoEndpoint).error(), Errc::invalid_argument);
  EXPECT_EQ(network.receive(a).error(), Errc::would_block);
  // Refused sends are not counted.
  EXPECT_EQ(network.stats().messages, 0u);
}

// An id send and a name send are the same datagram: the tamperer sees the
// same names and bytes, the stats move the same, and the receiver gets the
// same source. Only the name overloads resolve names.
TEST(SimNetwork, IdAndNameSendsAreOneDatagramPath) {
  struct Outcome {
    std::vector<std::tuple<std::string, std::string, Bytes>> seen;
    std::vector<std::tuple<std::string, EndpointId, Bytes>> delivered;
    NetStats stats;
  };
  const auto run = [](bool by_id) {
    Outcome out;
    SimNetwork network;
    const EndpointId a = network.register_endpoint("a").value();
    const EndpointId b = network.register_endpoint("b").value();
    network.set_tamperer([&out](const std::string& from, const std::string& to,
                                BytesView payload) -> std::optional<Bytes> {
      out.seen.emplace_back(from, to, Bytes(payload.begin(), payload.end()));
      if (payload.size() == 4) return std::nullopt;
      Bytes copy(payload.begin(), payload.end());
      if (to_string(payload).starts_with("flip")) copy[0] ^= 0xFF;
      return copy;
    });
    for (const char* text : {"drop", "keep-me", "flip-me"}) {
      if (by_id)
        EXPECT_TRUE(network.send(a, b, to_bytes(text)).ok());
      else
        EXPECT_TRUE(network.send("a", "b", to_bytes(text)).ok());
    }
    while (auto datagram = by_id ? network.receive(b) : network.receive("b"))
      out.delivered.emplace_back(datagram->from, datagram->from_id,
                                 std::move(datagram->payload));
    out.stats = network.stats();
    return out;
  };
  const Outcome by_id = run(true);
  const Outcome by_name = run(false);
  EXPECT_EQ(by_id.seen, by_name.seen);
  EXPECT_EQ(by_id.delivered, by_name.delivered);
  ASSERT_EQ(by_id.delivered.size(), 2u);
  EXPECT_EQ(std::get<0>(by_id.delivered[0]), "a");
  EXPECT_EQ(std::get<1>(by_id.delivered[0]), 0u);
  EXPECT_EQ(by_id.stats.messages, by_name.stats.messages);
  EXPECT_EQ(by_id.stats.bytes, by_name.stats.bytes);
  EXPECT_EQ(by_id.stats.dropped, by_name.stats.dropped);
  EXPECT_EQ(by_id.stats.modified, by_name.stats.modified);
  EXPECT_EQ(by_id.stats.dropped, 1u);
  EXPECT_EQ(by_id.stats.modified, 1u);
  // Sends and receives by id resolve nothing; by name, each resolves its
  // names (three sends of two names, three receives of one).
  EXPECT_EQ(by_id.stats.name_resolutions, 0u);
  EXPECT_EQ(by_name.stats.name_resolutions, 3u * 2 + 3);
}

TEST(SimNetwork, InjectionUnderAnUnregisteredNameIsStillDelivered) {
  SimNetwork network;
  const EndpointId victim = network.register_endpoint("victim").value();
  const EndpointId peer = network.register_endpoint("peer").value();
  ASSERT_TRUE(network.inject("nobody", "victim", to_bytes("forged")).ok());
  ASSERT_TRUE(network.inject("peer", "victim", to_bytes("spoofed")).ok());
  ASSERT_TRUE(network.inject("nobody", "victim", to_bytes("again")).ok());
  // The claimed name gets the next dense id, the same on every injection.
  auto forged = network.receive(victim);
  ASSERT_TRUE(forged.ok());
  EXPECT_EQ(forged->from, "nobody");
  EXPECT_EQ(forged->from_id, 2u);
  EXPECT_EQ(to_string(forged->payload), "forged");
  // A registered claimed name carries that name's id: a spoof lands where
  // a real datagram from it would.
  auto spoofed = network.receive(victim);
  ASSERT_TRUE(spoofed.ok());
  EXPECT_EQ(spoofed->from_id, peer);
  EXPECT_EQ(network.receive(victim).value().from_id, forged->from_id);

  // A claimed id neither resolves, receives nor is answered, and cannot be
  // injected to.
  EXPECT_EQ(network.resolve("nobody").error(), Errc::invalid_argument);
  EXPECT_EQ(network.receive(forged->from_id).error(), Errc::invalid_argument);
  EXPECT_EQ(network.send(victim, forged->from_id, to_bytes("reply")).error(),
            Errc::invalid_argument);
  EXPECT_EQ(network.send(forged->from_id, victim, to_bytes("x")).error(),
            Errc::invalid_argument);
  EXPECT_EQ(network.inject("x", "nobody", to_bytes("y")).error(),
            Errc::invalid_argument);
  EXPECT_EQ(network.stats().messages, 0u);

  // Registering the name keeps its id and opens it. The refused injection
  // above gave "x" no id, so the next name gets 3.
  EXPECT_EQ(network.register_endpoint("nobody").value(), forged->from_id);
  EXPECT_EQ(network.register_endpoint("nobody").error(),
            Errc::invalid_argument);
  EXPECT_EQ(network.resolve("nobody").value(), forged->from_id);
  ASSERT_TRUE(network.send(victim, forged->from_id, to_bytes("reply")).ok());
  EXPECT_EQ(to_string(network.receive("nobody").value().payload), "reply");
  EXPECT_EQ(network.register_endpoint("late").value(), 3u);
}

// The moving send and the copying send are one datagram path: the same
// deliveries, the same stats, the same bytes shown to the tamperer.
struct SendOutcome {
  std::vector<std::pair<std::string, Bytes>> delivered;
  std::vector<Bytes> seen_by_tamperer;
  NetStats stats;
};

SendOutcome send_all(const std::vector<Bytes>& payloads, bool move,
                     std::optional<SimNetwork::Tamperer> tamperer) {
  SendOutcome out;
  SimNetwork network;
  EXPECT_TRUE(network.register_endpoint("a").ok());
  EXPECT_TRUE(network.register_endpoint("b").ok());
  if (tamperer) {
    network.set_tamperer([&out, inner = *tamperer](
                             const std::string& from, const std::string& to,
                             BytesView payload) {
      out.seen_by_tamperer.emplace_back(payload.begin(), payload.end());
      return inner(from, to, payload);
    });
  }
  for (const Bytes& payload : payloads) {
    if (move) {
      Bytes owned = payload;
      EXPECT_TRUE(network.send("a", "b", std::move(owned)).ok());
    } else {
      EXPECT_TRUE(network.send("a", "b", BytesView(payload)).ok());
    }
  }
  while (auto datagram = network.receive("b"))
    out.delivered.emplace_back(datagram->from, std::move(datagram->payload));
  out.stats = network.stats();
  return out;
}

TEST(SimNetwork, MoveSendMatchesViewSend) {
  const std::vector<Bytes> payloads = {to_bytes("drop"), to_bytes("keep-me"),
                                       to_bytes("flip-me"), Bytes{},
                                       to_bytes("same-bytes")};
  const SimNetwork::Tamperer dropping =
      [](const std::string&, const std::string&,
         BytesView payload) -> std::optional<Bytes> {
    if (payload.size() == 4) return std::nullopt;
    return Bytes(payload.begin(), payload.end());
  };
  // Flips the first byte of some payloads and hands others back unchanged,
  // which must not count as modified.
  const SimNetwork::Tamperer modifying =
      [](const std::string&, const std::string&,
         BytesView payload) -> std::optional<Bytes> {
    Bytes copy(payload.begin(), payload.end());
    if (to_string(payload).starts_with("flip")) copy[0] ^= 0xFF;
    return copy;
  };
  for (const auto& tamperer :
       {std::optional<SimNetwork::Tamperer>{}, std::optional(dropping),
        std::optional(modifying)}) {
    const SendOutcome moved = send_all(payloads, /*move=*/true, tamperer);
    const SendOutcome viewed = send_all(payloads, /*move=*/false, tamperer);
    EXPECT_EQ(moved.delivered, viewed.delivered);
    EXPECT_EQ(moved.stats.messages, viewed.stats.messages);
    EXPECT_EQ(moved.stats.bytes, viewed.stats.bytes);
    EXPECT_EQ(moved.stats.dropped, viewed.stats.dropped);
    EXPECT_EQ(moved.stats.modified, viewed.stats.modified);
    EXPECT_EQ(moved.stats.messages, payloads.size());
    if (tamperer) {
      // Every payload reaches the tamperer intact, whichever send made it.
      EXPECT_EQ(moved.seen_by_tamperer, payloads);
      EXPECT_EQ(viewed.seen_by_tamperer, payloads);
    }
  }
  const SendOutcome dropped = send_all(payloads, true, dropping);
  EXPECT_EQ(dropped.stats.dropped, 1u);
  EXPECT_EQ(dropped.stats.modified, 0u);
  EXPECT_EQ(dropped.delivered.size(), payloads.size() - 1);
  const SendOutcome modified = send_all(payloads, true, modifying);
  EXPECT_EQ(modified.stats.modified, 1u);
  ASSERT_EQ(modified.delivered.size(), payloads.size());
  EXPECT_EQ(modified.delivered[2].second[0], 'f' ^ 0xFF);
}

// ---------------------------------------------------------------------------
// SecureChannel fixture: an SGX responder ("anonymizer") that the initiator
// verifies, plus optional initiator attestation (TrustZone metering TC).
class SecureChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_machine_ = test::make_machine("server");
    sgx_ = *test::shared_registry().create("sgx", *server_machine_);
    anonymizer_ = *sgx_->create_domain(test::tc_spec("anonymizer"));

    verifier_ = std::make_unique<core::AttestationVerifier>(to_bytes("v"));
    verifier_->add_trusted_root(test::shared_vendor().root_public_key());
    verifier_->expect_measurement(
        "anonymizer", test::tc_spec("anonymizer").image.measurement());
  }

  /// Run the full handshake; returns (initiator, responder) established.
  static void run_handshake(SecureChannelEndpoint& initiator,
                            SecureChannelEndpoint& responder) {
    auto msg1 = initiator.start();
    ASSERT_TRUE(msg1.ok());
    auto msg2 = responder.handle_msg1(*msg1);
    ASSERT_TRUE(msg2.ok());
    auto msg3 = initiator.handle_msg2(*msg2);
    ASSERT_TRUE(msg3.ok());
    ASSERT_TRUE(responder.handle_msg3(*msg3).ok());
    ASSERT_TRUE(initiator.established());
    ASSERT_TRUE(responder.established());
  }

  std::unique_ptr<hw::Machine> server_machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  substrate::DomainId anonymizer_ = 0;
  std::unique_ptr<core::AttestationVerifier> verifier_;
};

TEST_F(SecureChannelTest, HandshakeWithResponderAttestation) {
  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"), std::nullopt,
      VerifierConfig{verifier_.get(), "anonymizer"});
  SecureChannelEndpoint responder(Role::responder, to_bytes("r-seed"),
                                  ProverConfig{sgx_.get(), anonymizer_},
                                  std::nullopt);
  run_handshake(initiator, responder);

  auto wire = initiator.seal_record(to_bytes("meter-reading:42kWh"));
  ASSERT_TRUE(wire.ok());
  auto plain = responder.open_record(*wire);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(to_string(*plain), "meter-reading:42kWh");

  auto reply = responder.seal_record(to_bytes("price-update:0.30"));
  ASSERT_TRUE(reply.ok());
  auto opened = initiator.open_record(*reply);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "price-update:0.30");
}

TEST_F(SecureChannelTest, RefusesManipulatedResponder) {
  // The Fig. 3 flow: the utility swapped in a tracking anonymizer; the
  // meter's verifier knows only the audited build's measurement.
  auto evil_spec = test::tc_spec("anonymizer");
  evil_spec.image.code = to_bytes("code-of-anonymizer+tracking");
  auto evil = *sgx_->create_domain(evil_spec);

  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"), std::nullopt,
      VerifierConfig{verifier_.get(), "anonymizer"});
  SecureChannelEndpoint responder(Role::responder, to_bytes("r-seed"),
                                  ProverConfig{sgx_.get(), evil},
                                  std::nullopt);
  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  auto msg2 = responder.handle_msg1(*msg1);
  ASSERT_TRUE(msg2.ok());
  EXPECT_EQ(initiator.handle_msg2(*msg2).error(), Errc::verification_failed);
  EXPECT_FALSE(initiator.established());
}

TEST_F(SecureChannelTest, RefusesMissingAttestation) {
  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"), std::nullopt,
      VerifierConfig{verifier_.get(), "anonymizer"});
  // Responder cannot attest (no prover config).
  SecureChannelEndpoint responder(Role::responder, to_bytes("r-seed"),
                                  std::nullopt, std::nullopt);
  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  auto msg2 = responder.handle_msg1(*msg1);
  ASSERT_TRUE(msg2.ok());
  EXPECT_FALSE(initiator.handle_msg2(*msg2).ok());
}

TEST_F(SecureChannelTest, MutualAttestation) {
  // The responder (utility) also verifies the initiator (metering TC on a
  // TrustZone device).
  auto meter_machine = test::make_machine("meter");
  auto tz = *test::shared_registry().create("trustzone", *meter_machine);
  auto metering = *tz->create_domain(test::tc_spec("metering"));

  core::AttestationVerifier utility_verifier(to_bytes("uv"));
  utility_verifier.add_trusted_root(test::shared_vendor().root_public_key());
  utility_verifier.expect_measurement(
      "metering", test::tc_spec("metering").image.measurement());

  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"),
      ProverConfig{tz.get(), metering},
      VerifierConfig{verifier_.get(), "anonymizer"});
  SecureChannelEndpoint responder(
      Role::responder, to_bytes("r-seed"),
      ProverConfig{sgx_.get(), anonymizer_},
      VerifierConfig{&utility_verifier, "metering"});
  run_handshake(initiator, responder);
}

TEST_F(SecureChannelTest, MutualAttestationRejectsFakeMeter) {
  core::AttestationVerifier utility_verifier(to_bytes("uv"));
  utility_verifier.add_trusted_root(test::shared_vendor().root_public_key());
  utility_verifier.expect_measurement(
      "metering", test::tc_spec("metering").image.measurement());

  // The "software emulation" attack from the paper: initiator has no
  // hardware to attest with and sends an empty quote.
  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"), std::nullopt,
      VerifierConfig{verifier_.get(), "anonymizer"});
  SecureChannelEndpoint responder(
      Role::responder, to_bytes("r-seed"),
      ProverConfig{sgx_.get(), anonymizer_},
      VerifierConfig{&utility_verifier, "metering"});
  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  auto msg2 = responder.handle_msg1(*msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = initiator.handle_msg2(*msg2);
  ASSERT_TRUE(msg3.ok());
  EXPECT_EQ(responder.handle_msg3(*msg3).error(), Errc::verification_failed);
  EXPECT_FALSE(responder.established());
}

TEST_F(SecureChannelTest, MitmSpliceBreaksQuoteBinding) {
  // Mallory intercepts msg1 and substitutes her own DH half before passing
  // it to the genuine responder. The quote then binds Mallory's key, not
  // the initiator's — so when Mallory relays msg2 back, verification fails.
  SecureChannelEndpoint initiator(
      Role::initiator, to_bytes("i-seed"), std::nullopt,
      VerifierConfig{verifier_.get(), "anonymizer"});
  SecureChannelEndpoint responder(Role::responder, to_bytes("r-seed"),
                                  ProverConfig{sgx_.get(), anonymizer_},
                                  std::nullopt);
  SecureChannelEndpoint mallory(Role::initiator, to_bytes("mallory"),
                                std::nullopt, std::nullopt);

  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  auto mallory_msg1 = mallory.start();  // her own DH half + nonce
  ASSERT_TRUE(mallory_msg1.ok());

  // Mallory forwards HER msg1; the responder answers (and binds her key).
  auto msg2 = responder.handle_msg1(*mallory_msg1);
  ASSERT_TRUE(msg2.ok());
  // Relayed to the real initiator: user_data = H(nonce_i' || dh_m || dh_r)
  // does not match what the initiator expects for its own nonce and key.
  EXPECT_FALSE(initiator.handle_msg2(*msg2).ok());
}

TEST_F(SecureChannelTest, RecordTamperingDetected) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("r"),
                                  std::nullopt, std::nullopt);
  run_handshake(initiator, responder);
  auto wire = initiator.seal_record(to_bytes("authentic"));
  ASSERT_TRUE(wire.ok());
  (*wire)[wire->size() - 1] ^= 0x01;
  EXPECT_EQ(responder.open_record(*wire).error(), Errc::verification_failed);
}

TEST_F(SecureChannelTest, RecordReplayDetected) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("r"),
                                  std::nullopt, std::nullopt);
  run_handshake(initiator, responder);
  auto wire = initiator.seal_record(to_bytes("pay 100 EUR"));
  ASSERT_TRUE(wire.ok());
  ASSERT_TRUE(responder.open_record(*wire).ok());
  // Replaying the exact same record must fail (sequence moved on).
  EXPECT_EQ(responder.open_record(*wire).error(), Errc::verification_failed);
}

TEST_F(SecureChannelTest, RecordReorderDetected) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("r"),
                                  std::nullopt, std::nullopt);
  run_handshake(initiator, responder);
  auto first = initiator.seal_record(to_bytes("one"));
  auto second = initiator.seal_record(to_bytes("two"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(responder.open_record(*second).ok());  // out of order
  EXPECT_TRUE(responder.open_record(*first).ok());    // order restored
}

TEST_F(SecureChannelTest, DirectionConfusionDetected) {
  // A record sealed by the initiator cannot be reflected back to it.
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("r"),
                                  std::nullopt, std::nullopt);
  run_handshake(initiator, responder);
  auto wire = initiator.seal_record(to_bytes("hello"));
  ASSERT_TRUE(wire.ok());
  EXPECT_FALSE(initiator.open_record(*wire).ok());
}

TEST_F(SecureChannelTest, RecordsBeforeEstablishmentRefused) {
  SecureChannelEndpoint endpoint(Role::initiator, to_bytes("i"), std::nullopt,
                                 std::nullopt);
  EXPECT_EQ(endpoint.seal_record(to_bytes("early")).error(),
            Errc::would_block);
  EXPECT_EQ(endpoint.open_record(Bytes(32, 0)).error(), Errc::would_block);
}

TEST_F(SecureChannelTest, MalformedHandshakeMessagesRejected) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("r"),
                                  std::nullopt, std::nullopt);
  EXPECT_FALSE(responder.handle_msg1(Bytes{1, 2, 3}).ok());
  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  Bytes truncated(*msg1);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(responder.handle_msg1(truncated).ok());
  // Role misuse.
  EXPECT_FALSE(responder.start().ok());
  EXPECT_FALSE(initiator.handle_msg1(*msg1).ok());
}

// ---------------------------------------------------------------------------
// Resumed channels: SecureChannelEndpoint::resume skips the handshake and
// derives everything from externally agreed key material (fleet tickets).

TEST_F(SecureChannelTest, ResumedEndpointsInteroperateImmediately) {
  const Bytes keys(32, 0x5A);
  auto initiator = SecureChannelEndpoint::resume(Role::initiator, keys);
  auto responder = SecureChannelEndpoint::resume(Role::responder, keys);
  ASSERT_TRUE(initiator->established());
  ASSERT_TRUE(responder->established());
  auto wire = initiator->seal_record(to_bytes("resumed-reading"));
  ASSERT_TRUE(wire.ok());
  auto plain = responder->open_record(*wire);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(to_string(*plain), "resumed-reading");
  auto reply = responder->seal_record(to_bytes("price"));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(initiator->open_record(*reply).ok());
}

TEST_F(SecureChannelTest, ResumedEndpointWithWrongKeysFailsEveryRecord) {
  // A stolen ticket without its secret derives different keys; the channel
  // authenticates itself in use — the first record already fails.
  auto initiator =
      SecureChannelEndpoint::resume(Role::initiator, Bytes(32, 0x01));
  auto responder =
      SecureChannelEndpoint::resume(Role::responder, Bytes(32, 0x02));
  auto wire = initiator->seal_record(to_bytes("forged"));
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(responder->open_record(*wire).error(), Errc::verification_failed);
}

// Ticket abuse at the issuer: the rejection paths a fleet server relies on
// (replay, expiry, rotation) answer with distinct, typed errors.
TEST(ResumptionTickets, AbuseIsRejectedWithTypedErrors) {
  fleet::TicketIssuer issuer(to_bytes("net-ticket-key"), /*ttl=*/500);
  crypto::Digest measurement{};
  measurement.fill(0x33);

  const fleet::MintedTicket replayed = issuer.mint(measurement, 0);
  ASSERT_TRUE(issuer.redeem(replayed.wire, 10).ok());
  EXPECT_EQ(issuer.redeem(replayed.wire, 20).error(), Errc::ticket_replayed);

  const fleet::MintedTicket expired = issuer.mint(measurement, 0);
  EXPECT_EQ(issuer.redeem(expired.wire, 1000).error(), Errc::ticket_expired);

  const fleet::MintedTicket rotated = issuer.mint(measurement, 0);
  issuer.rotate();
  EXPECT_EQ(issuer.redeem(rotated.wire, 10).error(),
            Errc::verification_failed);
}

// ---------------------------------------------------------------------------
// RemoteProxy / RemoteDispatcher error paths: the RPC layer must turn every
// kind of malformed or hostile input into a clean refusal, never into a
// stuck channel or a fabricated success.
class RemoteRpcTest : public SecureChannelTest {
 protected:
  void SetUp() override {
    SecureChannelTest::SetUp();
    client_ = std::make_unique<SecureChannelEndpoint>(
        Role::initiator, to_bytes("rpc-i"), std::nullopt, std::nullopt);
    server_ = std::make_unique<SecureChannelEndpoint>(
        Role::responder, to_bytes("rpc-r"), std::nullopt, std::nullopt);
    run_handshake(*client_, *server_);
    dispatcher_ = std::make_unique<RemoteDispatcher>(*server_);
    ASSERT_TRUE(dispatcher_
                    ->register_method("echo",
                                      [](BytesView request) -> Result<Bytes> {
                                        return Bytes(request.begin(),
                                                     request.end());
                                      })
                    .ok());
    ASSERT_TRUE(dispatcher_
                    ->register_method("refuse",
                                      [](BytesView) -> Result<Bytes> {
                                        return Errc::access_denied;
                                      })
                    .ok());
    proxy_ = std::make_unique<RemoteProxy>(
        *client_, [this](BytesView record) -> Result<Bytes> {
          return dispatcher_->handle(record);
        });
  }

  std::unique_ptr<SecureChannelEndpoint> client_;
  std::unique_ptr<SecureChannelEndpoint> server_;
  std::unique_ptr<RemoteDispatcher> dispatcher_;
  std::unique_ptr<RemoteProxy> proxy_;
};

TEST_F(RemoteRpcTest, EchoRoundTrip) {
  auto reply = proxy_->call("echo", to_bytes("ping"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(*reply), "ping");
}

TEST_F(RemoteRpcTest, UnknownAndMalformedMethodNamesRefused) {
  EXPECT_EQ(proxy_->call("no-such-method", {}).error(),
            Errc::invalid_argument);
  // An empty method name is well-framed but matches nothing.
  EXPECT_EQ(proxy_->call("", {}).error(), Errc::invalid_argument);
  // A method name with embedded NULs and control bytes is just a string
  // that matches nothing — it must not confuse the framing.
  const std::string weird("\x00\x01\xffmethod\n", 9);
  EXPECT_EQ(proxy_->call(weird, to_bytes("x")).error(),
            Errc::invalid_argument);
  // The channel must still be usable afterwards.
  EXPECT_TRUE(proxy_->call("echo", to_bytes("still-alive")).ok());
}

TEST_F(RemoteRpcTest, HandlerRefusalTravelsBack) {
  EXPECT_EQ(proxy_->call("refuse", to_bytes("x")).error(), Errc::access_denied);
}

TEST_F(RemoteRpcTest, LyingMethodLengthRefused) {
  // Craft an authentic record whose method_len field points past the end
  // of the plaintext. The dispatcher must answer invalid_argument (inside
  // an authentic reply), not crash or hang.
  Bytes plain;
  plain.push_back(0xFF);  // method_len = 0xFF00 + 0xFF, far beyond the data
  plain.push_back(0xFF);
  plain.push_back('x');
  auto record = client_->seal_record(plain);
  ASSERT_TRUE(record.ok());
  auto reply_record = dispatcher_->handle(*record);
  ASSERT_TRUE(reply_record.ok());
  auto reply = client_->open_record(*reply_record);
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->empty());
  EXPECT_EQ(static_cast<Errc>((*reply)[0]), Errc::invalid_argument);
}

TEST_F(RemoteRpcTest, TruncatedSealedRecordRefused) {
  auto record = client_->seal_record(
      to_bytes(std::string("\x00\x04" "echopayload", 13)));
  ASSERT_TRUE(record.ok());
  // Losing the last byte leaves a parseable record with a broken MAC.
  Bytes clipped(*record);
  clipped.pop_back();
  EXPECT_EQ(dispatcher_->handle(clipped).error(), Errc::verification_failed);
  // Losing half the record leaves nothing parseable at all.
  Bytes truncated(*record);
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(dispatcher_->handle(truncated).error(), Errc::invalid_argument);
  Bytes empty;
  EXPECT_FALSE(dispatcher_->handle(empty).ok());
}

TEST_F(RemoteRpcTest, ReplayedRequestRecordRefused) {
  auto record =
      client_->seal_record(to_bytes(std::string("\x00\x04" "echoonce", 10)));
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(dispatcher_->handle(*record).ok());
  // An attacker replaying the captured request record gets a channel-level
  // refusal: the receive sequence has moved on.
  EXPECT_EQ(dispatcher_->handle(*record).error(), Errc::verification_failed);
}


// ---------------------------------------------------------------------------
// Wire goldens: the exact bytes of sealed records and fleet frames on a
// seeded channel. Any rewrite of the record layer must reproduce them.

std::string pin(BytesView b) {
  if (b.size() <= 64) return util::to_hex(b);
  return "sha256:" + util::to_hex(crypto::digest_view(crypto::Sha256::hash(b)));
}

Bytes golden_plaintext(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 37 + n);
  return b;
}

/// Unattested handshake between two seeded endpoints: every byte it
/// produces follows from the seeds.
void seeded_handshake(SecureChannelEndpoint& initiator,
                      SecureChannelEndpoint& responder) {
  auto msg1 = initiator.start();
  ASSERT_TRUE(msg1.ok());
  auto msg2 = responder.handle_msg1(*msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = initiator.handle_msg2(*msg2);
  ASSERT_TRUE(msg3.ok());
  ASSERT_TRUE(responder.handle_msg3(*msg3).ok());
}

constexpr std::size_t kGoldenLengths[] = {0, 1, 23, 55, 56, 64, 200};

TEST(WireGolden, SealRecordBothRoles) {
  const std::string initiator_golden[] = {
      "00000000000000006027e6a851dcbf82b4b8043f1aad2c2c",
      "00000000000000025bb648f1b61a25f9770a2d76342bfa1081",
      "0000000000000004bb9a58ffb36486c3837e358f760d8fadd344264617b4e5a69b"
      "2ab6ff245402d8427ece765e830e",
      "sha256:af997dcef7ff173ee4b9f75d9ab47383977fcd82372aad1f777e35c19eb83e32",
      "sha256:f3ab1782d9906dba77f80e56b6bb740282bcc0a3e4feeece711f41ac36ce1911",
      "sha256:6f3ad9786015427735d053c9fdbe2c71b12b17e97e7e3a17120ac72716aa07b2",
      "sha256:d5eae82f9db0fe9814fbf2cae8ab22d98071074e249a1ee827ed50e29fa22916",
  };
  const std::string responder_golden[] = {
      "000000000000000189adf05b8f1534011100e276d61f0a7b",
      "0000000000000003dad93f84e07519fd5c18c488d77f1aac2a",
      "0000000000000005a0dfbe4d570e264d60ee47fdf78c4d0e7dd65af8898aa4f6f8"
      "a49f3d302ebb79a1f3052ef11e52",
      "sha256:4472d6f9a3dc15e628ebd3b28c0ed0ed5e6475575639463319951ddee4f314d0",
      "sha256:c0910e519685dbb9ff7edcb1041cd0d8679cbdfd1def49ab475d0f3e82f9e39f",
      "sha256:dd90407123467944b8ddb91458ffa97d78ca8acf7215288fdce1f4a1976ce871",
      "sha256:058d192d456d1e73d7c37e82eb8cb51daa5a60791e4e3efaa318d1f0912866bc",
  };
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("golden-i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("golden-r"),
                                  std::nullopt, std::nullopt);
  seeded_handshake(initiator, responder);
  for (std::size_t i = 0; i < std::size(kGoldenLengths); ++i) {
    const Bytes plain = golden_plaintext(kGoldenLengths[i]);
    auto to_responder = initiator.seal_record(plain);
    ASSERT_TRUE(to_responder.ok());
    EXPECT_EQ(pin(*to_responder), initiator_golden[i])
        << "initiator len=" << kGoldenLengths[i];
    auto to_initiator = responder.seal_record(plain);
    ASSERT_TRUE(to_initiator.ok());
    EXPECT_EQ(pin(*to_initiator), responder_golden[i])
        << "responder len=" << kGoldenLengths[i];
    // Both directions still open in order.
    auto opened = responder.open_record(*to_responder);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plain);
    opened = initiator.open_record(*to_initiator);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plain);
  }
}

TEST(WireGolden, FleetRecordAndReplyFrames) {
  const std::string request_golden =
      "040000000000000000b148a0842409613b1feb56feb48db71d58140b36113f19c7"
      "28ba9b80c2cfcc242fea9736fad2fb37574e024f129347e5";
  const std::string reply_golden =
      "150000000000000001187ea7db704807d1991e5baae7b3f6c6516be1473148a1d8"
      "04d2bdb3fa2637c693";
  const Bytes request_plain =
      encode_rpc_request("report", golden_plaintext(24));
  const Bytes reply_plain = encode_rpc_reply(Errc::ok, golden_plaintext(16));

  // The framed record as frame(kind, seal_record(...)) builds it...
  SecureChannelEndpoint meter(Role::initiator, to_bytes("golden-meter"),
                              std::nullopt, std::nullopt);
  SecureChannelEndpoint utility(Role::responder, to_bytes("golden-utility"),
                                std::nullopt, std::nullopt);
  seeded_handshake(meter, utility);
  auto request = meter.seal_record(request_plain);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(pin(fleet::frame(fleet::FrameKind::record, *request)),
            request_golden);
  auto reply = utility.seal_record(reply_plain);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(pin(fleet::frame(fleet::FrameKind::reply, *reply)), reply_golden);

  // ...and as the fleet sends it, sealed behind its kind in one buffer, on
  // an identically seeded channel.
  SecureChannelEndpoint meter2(Role::initiator, to_bytes("golden-meter"),
                               std::nullopt, std::nullopt);
  SecureChannelEndpoint utility2(Role::responder, to_bytes("golden-utility"),
                                 std::nullopt, std::nullopt);
  seeded_handshake(meter2, utility2);
  auto request_frame =
      fleet::seal_frame(meter2, fleet::FrameKind::record, request_plain);
  ASSERT_TRUE(request_frame.ok());
  EXPECT_EQ(pin(*request_frame), request_golden);
  auto reply_frame =
      fleet::seal_frame(utility2, fleet::FrameKind::reply, reply_plain);
  ASSERT_TRUE(reply_frame.ok());
  EXPECT_EQ(pin(*reply_frame), reply_golden);

  // The frames parse back to the sealed records, which open in order.
  auto parsed = fleet::parse_frame(*request_frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, fleet::FrameKind::record);
  auto plain = utility2.open_record(parsed->payload);
  ASSERT_TRUE(plain.ok());
  auto decoded = decode_rpc_request(*plain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->method, "report");
  EXPECT_EQ(Bytes(decoded->payload.begin(), decoded->payload.end()),
            golden_plaintext(24));
  parsed = fleet::parse_frame(*reply_frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, fleet::FrameKind::reply);
  plain = meter2.open_record(parsed->payload);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(decode_rpc_reply(*plain).value(), golden_plaintext(16));
}

TEST(WireGolden, OpenRecordRejectsEveryByteFlip) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("golden-i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("golden-r"),
                                  std::nullopt, std::nullopt);
  seeded_handshake(initiator, responder);
  auto wire = initiator.seal_record(golden_plaintext(23));
  ASSERT_TRUE(wire.ok());
  for (std::size_t i = 0; i < wire->size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      Bytes forged = *wire;
      forged[i] ^= flip;
      EXPECT_EQ(responder.open_record(forged).error(),
                Errc::verification_failed)
          << "byte " << i << " flip " << int(flip);
    }
  }
  // None of the refusals moved the receive sequence.
  auto plain = responder.open_record(*wire);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, golden_plaintext(23));
}

/// Two seeded channel pairs in lockstep: the reference record path on one,
/// the one-buffer seal and the in-place open on the other.
struct TwinChannels {
  TwinChannels(const char* i_seed, const char* r_seed)
      : ref_i(Role::initiator, to_bytes(i_seed), std::nullopt, std::nullopt),
        ref_r(Role::responder, to_bytes(r_seed), std::nullopt, std::nullopt),
        i(Role::initiator, to_bytes(i_seed), std::nullopt, std::nullopt),
        r(Role::responder, to_bytes(r_seed), std::nullopt, std::nullopt) {
    seeded_handshake(ref_i, ref_r);
    seeded_handshake(i, r);
  }
  SecureChannelEndpoint ref_i, ref_r, i, r;
};

/// Open `record` in place on `channel` and check it against `expected`
/// (the reference open_record's plaintext): the same bytes, decrypted
/// where the ciphertext was.
void expect_in_place_open(SecureChannelEndpoint& channel, Bytes record,
                          const Bytes& expected) {
  auto plain = channel.open_record_in_place(record);
  ASSERT_TRUE(plain.ok()) << errc_name(plain.error());
  EXPECT_EQ(plain->data(),
            record.data() + SecureChannelEndpoint::kRecordHeaderBytes);
  EXPECT_EQ(Bytes(plain->begin(), plain->end()), expected);
}

// seal_record_parts(prefix, head, body) is seal_record(head ‖ body, prefix)
// and open_record_in_place is open_record, byte for byte, on every record
// golden: each plaintext split at its start, middle and end, both roles.
TEST(WireGolden, PartsSealAndInPlaceOpenMatchTheRecordPath) {
  TwinChannels twin("golden-i", "golden-r");
  for (const std::size_t n : kGoldenLengths) {
    const Bytes plain = golden_plaintext(n);
    for (const std::size_t split : {std::size_t{0}, n / 2, n}) {
      const BytesView head = BytesView(plain).first(split);
      const BytesView body = BytesView(plain).subspan(split);
      auto ref_up = twin.ref_i.seal_record(plain);
      auto up = twin.i.seal_record_parts({}, head, body);
      ASSERT_TRUE(ref_up.ok() && up.ok());
      EXPECT_EQ(*up, *ref_up) << "initiator len=" << n << " split=" << split;
      auto ref_down = twin.ref_r.seal_record(plain);
      auto down = twin.r.seal_record_parts({}, head, body);
      ASSERT_TRUE(ref_down.ok() && down.ok());
      EXPECT_EQ(*down, *ref_down) << "responder len=" << n
                                  << " split=" << split;

      auto ref_opened = twin.ref_r.open_record(*ref_up);
      ASSERT_TRUE(ref_opened.ok());
      EXPECT_EQ(*ref_opened, plain);
      expect_in_place_open(twin.r, *up, *ref_opened);
      ref_opened = twin.ref_i.open_record(*ref_down);
      ASSERT_TRUE(ref_opened.ok());
      expect_in_place_open(twin.i, *down, *ref_opened);
    }
  }
}

// The fleet's request and reply frames as the two-part seal builds them
// (method head + payload, error byte + payload) are the frames the
// encode_rpc_* path builds, golden included; error replies carry no
// payload either way.
TEST(WireGolden, FleetPartsSealMatchesEncodedRpcFrames) {
  const std::string request_golden =
      "040000000000000000b148a0842409613b1feb56feb48db71d58140b36113f19c7"
      "28ba9b80c2cfcc242fea9736fad2fb37574e024f129347e5";
  const std::string reply_golden =
      "150000000000000001187ea7db704807d1991e5baae7b3f6c6516be1473148a1d8"
      "04d2bdb3fa2637c693";
  TwinChannels twin("golden-meter", "golden-utility");
  const Bytes payload = golden_plaintext(24);
  const Bytes reply_payload = golden_plaintext(16);

  Bytes head;
  append_rpc_request_head(head, "report");
  auto request = fleet::seal_frame(twin.i, fleet::FrameKind::record, head,
                                   payload);
  auto ref_request =
      fleet::seal_frame(twin.ref_i, fleet::FrameKind::record,
                        encode_rpc_request("report", payload));
  ASSERT_TRUE(request.ok() && ref_request.ok());
  EXPECT_EQ(*request, *ref_request);
  EXPECT_EQ(pin(*request), request_golden);

  for (const Errc error : {Errc::ok, Errc::exhausted, Errc::invalid_argument}) {
    const std::uint8_t reply_head = rpc_reply_head(error);
    auto reply = fleet::seal_frame(
        twin.r, fleet::FrameKind::reply, BytesView(&reply_head, 1),
        error == Errc::ok ? BytesView(reply_payload) : BytesView());
    auto ref_reply = fleet::seal_frame(twin.ref_r, fleet::FrameKind::reply,
                                       encode_rpc_reply(error, reply_payload));
    ASSERT_TRUE(reply.ok() && ref_reply.ok());
    EXPECT_EQ(*reply, *ref_reply) << errc_name(error);
    if (error == Errc::ok) {
      EXPECT_EQ(pin(*reply), reply_golden);
    }
  }

  // Opened in place behind the frame kind, as the fleet opens them.
  Bytes received = *request;
  auto plain = twin.r.open_record_in_place(std::span(received).subspan(1));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Bytes(plain->begin(), plain->end()),
            encode_rpc_request("report", payload));
}

// A refused in-place open refuses exactly what open_record refuses, and
// leaves the buffer as it was: nothing is decrypted over a forgery.
TEST(WireGolden, InPlaceOpenRejectsEveryByteFlipAndLeavesTheBuffer) {
  SecureChannelEndpoint initiator(Role::initiator, to_bytes("golden-i"),
                                  std::nullopt, std::nullopt);
  SecureChannelEndpoint responder(Role::responder, to_bytes("golden-r"),
                                  std::nullopt, std::nullopt);
  seeded_handshake(initiator, responder);
  auto wire = initiator.seal_record(golden_plaintext(23));
  ASSERT_TRUE(wire.ok());
  for (std::size_t i = 0; i < wire->size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      Bytes forged = *wire;
      forged[i] ^= flip;
      const Bytes before = forged;
      EXPECT_EQ(responder.open_record_in_place(forged).error(),
                Errc::verification_failed)
          << "byte " << i << " flip " << int(flip);
      EXPECT_EQ(forged, before) << "byte " << i << " flip " << int(flip);
    }
  }
  Bytes short_record(SecureChannelEndpoint::kRecordHeaderBytes - 1, 0);
  EXPECT_EQ(responder.open_record_in_place(short_record).error(),
            Errc::invalid_argument);
  // None of the refusals moved the receive sequence.
  Bytes record = *wire;
  auto plain = responder.open_record_in_place(record);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Bytes(plain->begin(), plain->end()), golden_plaintext(23));
}

}  // namespace
}  // namespace lateral::net
