#include "net/network.h"

namespace lateral::net {

EndpointId SimNetwork::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<EndpointId>(endpoints_.size()));
  if (inserted) endpoints_.push_back(Endpoint{.name = name, .queue = {}});
  return it->second;
}

Result<EndpointId> SimNetwork::register_endpoint(const std::string& name) {
  if (name.empty()) return Errc::invalid_argument;
  const EndpointId id = intern(name);
  if (endpoints_[id].registered) return Errc::invalid_argument;
  endpoints_[id].registered = true;
  return id;
}

EndpointId SimNetwork::find(const std::string& name) {
  stats_.name_resolutions++;
  const auto it = ids_.find(name);
  return it == ids_.end() || !registered(it->second) ? kNoEndpoint
                                                      : it->second;
}

Result<EndpointId> SimNetwork::resolve(const std::string& name) {
  const EndpointId id = find(name);
  if (id == kNoEndpoint) return Errc::invalid_argument;
  return id;
}

Status SimNetwork::send(EndpointId from, EndpointId to, Bytes&& payload) {
  if (!registered(from) || !registered(to)) return Errc::invalid_argument;
  Endpoint& receiver = endpoints_[to];

  stats_.messages++;
  stats_.bytes += payload.size();

  if (tamperer_) {
    auto result = tamperer_(endpoints_[from].name, receiver.name, payload);
    if (!result) {
      stats_.dropped++;
      return Status::success();  // silently dropped: sender can't tell
    }
    if (!ct_equal(*result, payload)) stats_.modified++;
    payload = std::move(*result);
  }
  receiver.queue.push_back(Datagram{.from = endpoints_[from].name,
                                    .payload = std::move(payload),
                                    .from_id = from});
  return Status::success();
}

Status SimNetwork::send(const std::string& from, const std::string& to,
                        Bytes&& payload) {
  const EndpointId from_id = find(from);
  return send(from_id, find(to), std::move(payload));
}

Status SimNetwork::send(const std::string& from, const std::string& to,
                        BytesView payload) {
  return send(from, to, Bytes(payload.begin(), payload.end()));
}

Status SimNetwork::inject(const std::string& claimed_from,
                          const std::string& to, BytesView payload) {
  const EndpointId to_id = find(to);
  if (to_id == kNoEndpoint) return Errc::invalid_argument;
  stats_.name_resolutions++;  // the claimed source's
  const EndpointId from_id = intern(claimed_from);
  endpoints_[to_id].queue.push_back(
      Datagram{.from = claimed_from,
               .payload = Bytes(payload.begin(), payload.end()),
               .from_id = from_id});
  return Status::success();
}

Result<SimNetwork::Datagram> SimNetwork::receive(EndpointId endpoint) {
  if (!registered(endpoint)) return Errc::invalid_argument;
  std::deque<Datagram>& queue = endpoints_[endpoint].queue;
  if (queue.empty()) return Errc::would_block;
  Datagram datagram = std::move(queue.front());
  queue.pop_front();
  return datagram;
}

Result<SimNetwork::Datagram> SimNetwork::receive(const std::string& endpoint) {
  return receive(find(endpoint));
}

}  // namespace lateral::net
