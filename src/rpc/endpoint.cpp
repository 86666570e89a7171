#include "rpc/endpoint.hpp"

namespace excovery::rpc {

void RpcServer::register_method(std::string name, Method method) {
  std::lock_guard lock(mutex_);
  methods_[std::move(name)] = std::move(method);
}

bool RpcServer::has_method(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return methods_.find(name) != methods_.end();
}

std::size_t RpcServer::method_count() const {
  std::lock_guard lock(mutex_);
  return methods_.size();
}

Result<std::string> RpcServer::handle(const std::string& request_xml) {
  EXC_ASSIGN_OR_RETURN(MethodCall call, decode_call(request_xml));
  return encode(dispatch(call));
}

MethodResponse RpcServer::dispatch(const MethodCall& call) {
  // One lock for lookup and execution: the prototype allows "only one
  // access at a time" per node object, and the method runs in place rather
  // than from a per-call copy of its std::function.
  std::lock_guard lock(mutex_);
  auto it = methods_.find(call.method);
  if (it == methods_.end()) {
    return MethodResponse::fault(-32601, "method not found: " + call.method);
  }
  Result<Value> outcome = it->second(call.params);
  if (!outcome.ok()) {
    return MethodResponse::fault(-32000, outcome.error().to_string());
  }
  // Filled in place: moving the value through MethodResponse::success's
  // by-value parameter trips a GCC 12 -O3 maybe-uninitialized false
  // positive on the nested variant.
  MethodResponse response;
  response.result = std::move(outcome).value();
  return response;
}

void InProcessTransport::attach(const std::string& endpoint,
                                RpcServer* server) {
  std::lock_guard lock(mutex_);
  servers_[endpoint] = server;
}

void InProcessTransport::detach(const std::string& endpoint) {
  std::lock_guard lock(mutex_);
  servers_.erase(endpoint);
}

std::size_t InProcessTransport::endpoint_count() const {
  std::lock_guard lock(mutex_);
  return servers_.size();
}

Result<std::string> InProcessTransport::round_trip(
    const std::string& endpoint, const std::string& request_xml) {
  RpcServer* server = nullptr;
  {
    std::lock_guard lock(mutex_);
    auto it = servers_.find(endpoint);
    if (it == servers_.end()) {
      return err_rpc("no server at endpoint '" + endpoint + "'");
    }
    server = it->second;
  }
  return server->handle(request_xml);
}

Result<Value> RpcClient::call(const std::string& method, ValueArray params) {
  MethodCall request{method, std::move(params)};
  EXC_ASSIGN_OR_RETURN(std::string response_xml,
                       transport_->round_trip(endpoint_, encode(request)));
  EXC_ASSIGN_OR_RETURN(MethodResponse response,
                       decode_response(response_xml));
  if (response.is_fault) {
    return err_rpc("fault " + std::to_string(response.fault_code) + " from " +
                   endpoint_ + "." + method + ": " + response.fault_string);
  }
  return std::move(response.result);
}

}  // namespace excovery::rpc
