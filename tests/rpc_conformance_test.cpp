// RPC dispatch conformance: the sync dispatcher, the async dispatcher and
// the fleet server's inline path give every request one meaning. Each
// server is driven with raw request plaintexts sealed on its own channel
// (behind its own prefix, on its own transport), and each reply is read
// back as the plaintext [u8 errc | payload] after that prefix.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_server.h"
#include "fleet/protocol.h"
#include "net/network.h"
#include "net/remote.h"
#include "net/secure_channel.h"
#include "runtime/async_proxy.h"
#include "test_support.h"
#include "util/wire.h"

namespace lateral {
namespace {

using net::MethodTable;
using net::Role;
using net::SecureChannelEndpoint;

/// One RPC server under test, with the client side of its channel.
class RpcServer {
 public:
  virtual ~RpcServer() = default;
  virtual Status register_method(const std::string& name,
                                 MethodTable::Method handler) = 0;
  /// Seal `request` (a [u16 len | method | payload] plaintext) as one
  /// request, have the server answer it, and return the reply plaintext
  /// after the server's own prefix.
  virtual Bytes exchange(BytesView request) = 0;
  /// Names register_method refuses before anything is registered.
  virtual std::vector<std::string> reserved() const { return {}; }
};

std::unique_ptr<SecureChannelEndpoint> endpoint(Role role,
                                                const std::string& seed) {
  return std::make_unique<SecureChannelEndpoint>(role, to_bytes(seed),
                                                 std::nullopt, std::nullopt);
}

/// An unattested handshake between two local endpoints.
void handshake(SecureChannelEndpoint& client, SecureChannelEndpoint& server) {
  auto msg1 = client.start();
  ASSERT_TRUE(msg1.ok());
  auto msg2 = server.handle_msg1(*msg1);
  ASSERT_TRUE(msg2.ok());
  auto msg3 = client.handle_msg2(*msg2);
  ASSERT_TRUE(msg3.ok());
  ASSERT_TRUE(server.handle_msg3(*msg3).ok());
}

class SyncServer : public RpcServer {
 public:
  SyncServer()
      : client_(endpoint(Role::initiator, "conf.sync.i")),
        server_(endpoint(Role::responder, "conf.sync.r")) {
    handshake(*client_, *server_);
    dispatcher_ = std::make_unique<net::RemoteDispatcher>(*server_);
  }
  Status register_method(const std::string& name,
                         MethodTable::Method handler) override {
    return dispatcher_->register_method(name, std::move(handler));
  }
  Bytes exchange(BytesView request) override {
    auto reply = dispatcher_->handle(*client_->seal_record(request));
    EXPECT_TRUE(reply.ok());
    return reply ? client_->open_record(*reply).value() : Bytes{};
  }

 private:
  std::unique_ptr<SecureChannelEndpoint> client_, server_;
  std::unique_ptr<net::RemoteDispatcher> dispatcher_;
};

class AsyncServer : public RpcServer {
 public:
  AsyncServer()
      : client_(endpoint(Role::initiator, "conf.async.i")),
        server_(endpoint(Role::responder, "conf.async.r")) {
    handshake(*client_, *server_);
    dispatcher_ = std::make_unique<runtime::AsyncRemoteDispatcher>(*server_);
  }
  Status register_method(const std::string& name,
                         MethodTable::Method handler) override {
    return dispatcher_->register_method(name, std::move(handler));
  }
  Bytes exchange(BytesView request) override {
    // [u32 id | 16 B trace ctx] in front of the request.
    Bytes plain;
    wire::ByteWriter(plain).u32(++id_);
    trace::TraceContext{}.encode(plain);
    wire::ByteWriter(plain).bytes(request);
    auto replies = dispatcher_->handle_burst({*client_->seal_record(plain)});
    EXPECT_TRUE(replies.ok());
    if (!replies || replies->size() != 1) return {};
    Bytes reply = client_->open_record(replies->front()).value();
    wire::ByteReader r(reply);
    EXPECT_EQ(r.u32().value(), id_);
    const BytesView rest = r.rest();
    return Bytes(rest.begin(), rest.end());
  }

 private:
  std::unique_ptr<SecureChannelEndpoint> client_, server_;
  std::unique_ptr<runtime::AsyncRemoteDispatcher> dispatcher_;
  std::uint32_t id_ = 0;
};

/// A FleetServer over SGX with one unattested client session, driven
/// frame by frame.
class FleetInlineServer : public RpcServer {
 public:
  FleetInlineServer() {
    machine_ = test::make_machine("conf-fleet");
    sgx_ = *test::shared_registry().create("sgx", *machine_);
    const auto service = *sgx_->create_domain(test::tc_spec("anonymizer"));
    const auto frontend = *sgx_->create_domain(test::tc_spec("frontend"));
    const auto channel = *sgx_->create_channel(frontend, service);
    EXPECT_TRUE(sgx_
                    ->set_handler(service,
                                  [](const substrate::Invocation& inv)
                                      -> Result<Bytes> {
                                    return Bytes(inv.data.begin(),
                                                 inv.data.end());
                                  })
                    .ok());
    server_id_ = network_.register_endpoint("utility").value();
    client_id_ = network_.register_endpoint("client").value();
    fleet::FleetServerConfig config;
    config.endpoint = "utility";
    config.network = &network_;
    config.substrate = sgx_.get();
    config.service_domain = service;
    config.frontend_domain = frontend;
    config.service_channel = channel;
    server_ = std::make_unique<fleet::FleetServer>(std::move(config));

    client_ = endpoint(Role::initiator, "conf.fleet.i");
    auto msg2 = round_trip(fleet::frame(fleet::FrameKind::full_msg1,
                                        *client_->start()),
                           fleet::FrameKind::full_msg2);
    auto msg3 = client_->handle_msg2(msg2);
    EXPECT_TRUE(msg3.ok());
    // The grant is the session's first record: open it to stay in step.
    const Bytes grant = round_trip(
        fleet::frame(fleet::FrameKind::full_msg3, *msg3),
        fleet::FrameKind::grant);
    EXPECT_TRUE(client_->open_record(grant).ok());
    EXPECT_EQ(server_->sessions(), 1u);
  }
  Status register_method(const std::string& name,
                         MethodTable::Method handler) override {
    return server_->register_method(name, std::move(handler));
  }
  Bytes exchange(BytesView request) override {
    const Bytes reply = round_trip(
        *fleet::seal_frame(*client_, fleet::FrameKind::record, request),
        fleet::FrameKind::reply);
    auto plain = client_->open_record(reply);
    EXPECT_TRUE(plain.ok());
    return plain ? *plain : Bytes{};
  }
  std::vector<std::string> reserved() const override {
    return {"report", "scrape", "audit_pull"};
  }

 private:
  /// Send `datagram` to the server, pump it, and return the payload of
  /// the one frame it answers with, which must be of kind `expected`.
  Bytes round_trip(Bytes datagram, fleet::FrameKind expected) {
    EXPECT_TRUE(
        network_.send(client_id_, server_id_, std::move(datagram)).ok());
    EXPECT_TRUE(server_->pump().ok());
    auto answer = network_.receive(client_id_);
    EXPECT_TRUE(answer.ok());
    if (!answer) return {};
    auto parsed = fleet::parse_frame(answer->payload);
    EXPECT_TRUE(parsed.ok());
    if (!parsed) return {};
    EXPECT_EQ(parsed->kind, expected);
    return Bytes(parsed->payload.begin(), parsed->payload.end());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<substrate::IsolationSubstrate> sgx_;
  net::SimNetwork network_;
  net::EndpointId server_id_ = net::kNoEndpoint;
  net::EndpointId client_id_ = net::kNoEndpoint;
  std::unique_ptr<fleet::FleetServer> server_;
  std::unique_ptr<SecureChannelEndpoint> client_;
};

std::unique_ptr<RpcServer> make_server(const std::string& kind) {
  if (kind == "sync") return std::make_unique<SyncServer>();
  if (kind == "async") return std::make_unique<AsyncServer>();
  return std::make_unique<FleetInlineServer>();
}

Bytes reply(Errc errc, const std::string& payload = {}) {
  Bytes out{net::rpc_reply_head(errc)};
  wire::ByteWriter(out).bytes(to_bytes(payload));
  return out;
}

Bytes request(const std::string& method, const std::string& payload = {}) {
  return net::encode_rpc_request(method, to_bytes(payload));
}

class RpcConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    server_ = make_server(GetParam());
    ASSERT_TRUE(server_
                    ->register_method("echo",
                                      [](BytesView r) -> Result<Bytes> {
                                        return Bytes(r.begin(), r.end());
                                      })
                    .ok());
    ASSERT_TRUE(server_
                    ->register_method("refuse",
                                      [](BytesView) -> Result<Bytes> {
                                        return Errc::access_denied;
                                      })
                    .ok());
  }

  std::unique_ptr<RpcServer> server_;
};

TEST_P(RpcConformanceTest, EchoRoundTrip) {
  EXPECT_EQ(server_->exchange(request("echo", "ping")),
            reply(Errc::ok, "ping"));
  EXPECT_EQ(server_->exchange(request("echo")), reply(Errc::ok));
}

TEST_P(RpcConformanceTest, UnknownMethodIsInvalidArgument) {
  EXPECT_EQ(server_->exchange(request("no-such-method", "x")),
            reply(Errc::invalid_argument));
}

TEST_P(RpcConformanceTest, EmptyMethodIsInvalidArgument) {
  EXPECT_EQ(server_->exchange(request("")), reply(Errc::invalid_argument));
}

TEST_P(RpcConformanceTest, MethodNameWithNulsMatchesNothing) {
  const std::string weird("\x00\x01\xff" "echo\n", 8);
  EXPECT_EQ(server_->exchange(request(weird, "x")),
            reply(Errc::invalid_argument));
  // A NUL does not end the name: "echo\0" is not "echo".
  EXPECT_EQ(server_->exchange(request(std::string("echo\0", 5), "x")),
            reply(Errc::invalid_argument));
}

TEST_P(RpcConformanceTest, MalformedRequestIsInvalidArgument) {
  // method_len points far past the end of the plaintext.
  EXPECT_EQ(server_->exchange(Bytes{0xFF, 0xFF, 'x'}),
            reply(Errc::invalid_argument));
  // method_len one byte past the end.
  EXPECT_EQ(server_->exchange(Bytes{0x00, 0x05, 'e', 'c', 'h', 'o'}),
            reply(Errc::invalid_argument));
  // Shorter than the length field.
  EXPECT_EQ(server_->exchange(Bytes{0x00}), reply(Errc::invalid_argument));
  EXPECT_EQ(server_->exchange(Bytes{}), reply(Errc::invalid_argument));
  // The channel is still in step afterwards.
  EXPECT_EQ(server_->exchange(request("echo", "alive")),
            reply(Errc::ok, "alive"));
}

TEST_P(RpcConformanceTest, HandlerRefusalTravelsBack) {
  EXPECT_EQ(server_->exchange(request("refuse", "x")),
            reply(Errc::access_denied));
}

TEST_P(RpcConformanceTest, RegisterRefusals) {
  const auto handler = [](BytesView) -> Result<Bytes> { return Bytes{}; };
  EXPECT_EQ(server_->register_method("", handler).error(),
            Errc::invalid_argument);
  EXPECT_EQ(server_->register_method("null", nullptr).error(),
            Errc::invalid_argument);
  EXPECT_EQ(server_->register_method("echo", handler).error(),
            Errc::invalid_argument);
  for (const std::string& name : server_->reserved())
    EXPECT_EQ(server_->register_method(name, handler).error(),
              Errc::invalid_argument)
        << name;
  // The first registration still serves; the refused ones left no trace.
  EXPECT_EQ(server_->exchange(request("echo", "first")),
            reply(Errc::ok, "first"));
  EXPECT_EQ(server_->exchange(request("null")), reply(Errc::invalid_argument));
  EXPECT_TRUE(server_->register_method("later", handler).ok());
  EXPECT_EQ(server_->exchange(request("later")), reply(Errc::ok));
}

INSTANTIATE_TEST_SUITE_P(
    AllServers, RpcConformanceTest,
    ::testing::Values("sync", "async", "fleet"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The fleet built-ins are ordinary table entries: without a metrics source
// or an audit log they answer not_supported, inside a sealed reply.
TEST(FleetBuiltIns, AnswerNotSupportedWithoutASource) {
  FleetInlineServer server;
  EXPECT_EQ(server.exchange(request("scrape")), reply(Errc::not_supported));
  EXPECT_EQ(server.exchange(request("audit_pull")),
            reply(Errc::not_supported));
}

}  // namespace
}  // namespace lateral
