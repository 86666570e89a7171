// XML-RPC message codec.
//
// The prototype's master and nodes "communicate synchronously using
// extensible markup language remote procedure calls (XML-RPC)" (§VI-A,
// ref [23], Winer's spec).  This codec implements the spec's data model:
// <methodCall> / <methodResponse>, scalar types (i4/int, boolean, double,
// string, base64, dateTime omitted), <array> and <struct>, plus the widely
// deployed <nil/> and <i8> extensions — mapped onto excovery::Value.
//
// It works on the text directly: the encoder appends into one string and
// the decoder is a single-pass pull reader, so no DOM is built for a
// message (DESIGN.md §15).  String content — <string>, <name>,
// <methodName> and bare <value> text — is sent and read back exactly,
// leading and trailing whitespace included.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery::rpc {

/// A remote procedure invocation.
struct MethodCall {
  std::string method;
  ValueArray params;
};

/// The outcome of an invocation: a result value or a fault.
struct MethodResponse {
  bool is_fault = false;
  Value result;          ///< valid when !is_fault
  int fault_code = 0;    ///< valid when is_fault
  std::string fault_string;

  static MethodResponse success(Value value) {
    MethodResponse r;
    r.result = std::move(value);
    return r;
  }
  static MethodResponse fault(int code, std::string message) {
    MethodResponse r;
    r.is_fault = true;
    r.fault_code = code;
    r.fault_string = std::move(message);
    return r;
  }
};

/// Serialise a call/response to XML-RPC document text.
std::string encode(const MethodCall& call);
std::string encode(const MethodResponse& response);

/// Parse XML-RPC document text.  Anything outside the XML-RPC grammar is a
/// kParse error, never a crash or an exception.
Result<MethodCall> decode_call(std::string_view xml_text);
Result<MethodResponse> decode_response(std::string_view xml_text);

/// One value as the text of its <value> element, exactly as it appears
/// inside a message, and back (exposed for tests).
std::string encode_value(const Value& value);
Result<Value> decode_value(std::string_view value_text);

}  // namespace excovery::rpc
