#include "net/network.h"

namespace lateral::net {

Status SimNetwork::register_endpoint(const std::string& name) {
  if (name.empty()) return Errc::invalid_argument;
  const auto [it, inserted] = queues_.emplace(name, std::deque<Datagram>{});
  (void)it;
  return inserted ? Status::success() : Status(Errc::invalid_argument);
}

Status SimNetwork::send(const std::string& from, const std::string& to,
                        Bytes&& payload) {
  if (!queues_.contains(from)) return Errc::invalid_argument;
  const auto it = queues_.find(to);
  if (it == queues_.end()) return Errc::invalid_argument;

  stats_.messages++;
  stats_.bytes += payload.size();

  if (tamperer_) {
    auto result = tamperer_(from, to, payload);
    if (!result) {
      stats_.dropped++;
      return Status::success();  // silently dropped: sender can't tell
    }
    if (!ct_equal(*result, payload)) stats_.modified++;
    payload = std::move(*result);
  }
  it->second.push_back(Datagram{from, std::move(payload)});
  return Status::success();
}

Status SimNetwork::send(const std::string& from, const std::string& to,
                        BytesView payload) {
  return send(from, to, Bytes(payload.begin(), payload.end()));
}

Status SimNetwork::inject(const std::string& claimed_from,
                          const std::string& to, BytesView payload) {
  const auto it = queues_.find(to);
  if (it == queues_.end()) return Errc::invalid_argument;
  it->second.push_back(Datagram{claimed_from, Bytes(payload.begin(), payload.end())});
  return Status::success();
}

Result<SimNetwork::Datagram> SimNetwork::receive(const std::string& endpoint) {
  const auto it = queues_.find(endpoint);
  if (it == queues_.end()) return Errc::invalid_argument;
  if (it->second.empty()) return Errc::would_block;
  Datagram datagram = std::move(it->second.front());
  it->second.pop_front();
  return datagram;
}

}  // namespace lateral::net
