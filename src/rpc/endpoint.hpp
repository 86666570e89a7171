// RPC endpoints: server-side method registry and client-side proxy, plus an
// in-process transport.
//
// §VI-A: "Master and nodes are connected in a centralized client-server
// architecture with a dedicated communication channel ... A node object
// presents the functions of one node to the master program via XML-RPC and
// uses locking to allow only one access at a time."
//
// The transport abstraction is the seam between ExCovery and the platform:
// the in-process transport models the DES testbed's dedicated wired control
// network (separate, reliable, non-interfering, §IV-A1).  Requests and
// responses travel as XML-RPC document text, so the codec is genuinely on
// the control path, as in the prototype.  The codec reads and writes that
// text directly, with no DOM per message (DESIGN.md §15), and dispatch
// runs the registered method in place under one lock.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "rpc/codec.hpp"

namespace excovery::rpc {

/// Server-side registry of callable methods.  Dispatch is serialised by a
/// per-server mutex (the prototype's node-object locking), held once for
/// lookup and execution.
class RpcServer {
 public:
  using Method = std::function<Result<Value>(const ValueArray& params)>;

  /// Register a method; replaces any previous registration of that name.
  void register_method(std::string name, Method method);
  bool has_method(const std::string& name) const;
  std::size_t method_count() const;

  /// Decode request text, dispatch, encode response text.  Transport-level
  /// errors (undecodable request) surface as Result errors; application
  /// errors travel inside the response as XML-RPC faults.
  Result<std::string> handle(const std::string& request_xml);

  /// Dispatch an already-decoded call (used by tests and direct callers).
  MethodResponse dispatch(const MethodCall& call);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Method> methods_;
};

/// Transport interface: move request text to a named server, return its
/// response text.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Result<std::string> round_trip(const std::string& endpoint,
                                         const std::string& request_xml) = 0;
};

/// In-process transport: a registry of servers by endpoint name.
class InProcessTransport final : public Transport {
 public:
  /// Attach a server under an endpoint name.  The server must outlive the
  /// transport registration (unregister before destroying it).
  void attach(const std::string& endpoint, RpcServer* server);
  void detach(const std::string& endpoint);
  std::size_t endpoint_count() const;

  Result<std::string> round_trip(const std::string& endpoint,
                                 const std::string& request_xml) override;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, RpcServer*> servers_;
};

/// Client-side proxy bound to one endpoint.
class RpcClient {
 public:
  RpcClient(Transport& transport, std::string endpoint)
      : transport_(&transport), endpoint_(std::move(endpoint)) {}

  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Invoke a remote method.  Faults map to kRpc errors carrying the fault
  /// string.
  Result<Value> call(const std::string& method, ValueArray params = {});

 private:
  Transport* transport_;
  std::string endpoint_;
};

}  // namespace excovery::rpc
