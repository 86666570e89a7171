// Unit tests for the XML-RPC control channel: codec, server dispatch,
// transport, client faults.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "rpc/codec.hpp"
#include "rpc/endpoint.hpp"

namespace excovery::rpc {
namespace {

// ---- codec: values ------------------------------------------------------------

Value round_trip(const Value& value) {
  Result<Value> back = decode_value(encode_value(value));
  EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error().to_string());
  return back.ok() ? back.value() : Value{};
}

TEST(RpcCodec, ScalarRoundTrips) {
  EXPECT_EQ(round_trip(Value{}), Value{});
  EXPECT_EQ(round_trip(Value{true}), Value{true});
  EXPECT_EQ(round_trip(Value{false}), Value{false});
  EXPECT_EQ(round_trip(Value{42}), Value{42});
  EXPECT_EQ(round_trip(Value{-1}), Value{-1});
  EXPECT_EQ(round_trip(Value{2.5}), Value{2.5});
  EXPECT_EQ(round_trip(Value{"text with <markup> & stuff"}),
            Value{"text with <markup> & stuff"});
}

TEST(RpcCodec, WideIntegersUseI8Extension) {
  std::int64_t wide = 5'000'000'000LL;
  EXPECT_EQ(round_trip(Value{wide}), Value{wide});
  EXPECT_NE(encode_value(Value{wide}).find("<i8>"), std::string::npos);
}

TEST(RpcCodec, Base64RoundTripsAllLengths) {
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 17u, 255u}) {
    Bytes data;
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<std::uint8_t>(i * 7 + 3));
    }
    EXPECT_EQ(round_trip(Value{data}), Value{data}) << len;
  }
}

TEST(RpcCodec, ArraysAndStructsNest) {
  ValueMap inner;
  inner.emplace("k", Value{1});
  ValueArray array{Value{"a"}, Value{inner}, Value{ValueArray{Value{2}}}};
  EXPECT_EQ(round_trip(Value{array}), Value{array});
}

TEST(RpcCodec, BareValueTextIsString) {
  Result<Value> value = decode_value("<value>plain</value>");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), Value{"plain"});
}

TEST(RpcCodec, I4AliasAccepted) {
  EXPECT_EQ(decode_value("<value><i4>7</i4></value>").value(), Value{7});
}

TEST(RpcCodec, UnknownScalarRejected) {
  EXPECT_FALSE(
      decode_value("<value><dateTime.iso8601>x</dateTime.iso8601></value>")
          .ok());
}

TEST(RpcCodec, StringWhitespacePreserved) {
  for (const char* text : {" padded ", "\ttab", "  ", "\nline\n", "a \r\n"}) {
    EXPECT_EQ(round_trip(Value{text}), Value{text});
  }
  EXPECT_EQ(decode_value("<value><string> padded </string></value>").value(),
            Value{" padded "});
  EXPECT_EQ(decode_value("<value>  </value>").value(), Value{"  "});
  EXPECT_EQ(decode_value("<value>\ttab</value>").value(), Value{"\ttab"});
  // Whitespace around a typed child is markup, not content.
  EXPECT_EQ(decode_value("<value>\n  <int>5</int>\n</value>").value(),
            Value{5});
  EXPECT_EQ(decode_value("<value> <string> s </string> </value>").value(),
            Value{" s "});

  ValueMap args;
  args[" key "] = Value{" spaced value "};
  MethodCall call{" spaced.method ", {Value{args}, Value{"\t"}}};
  Result<MethodCall> back = decode_call(encode(call));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().method, " spaced.method ");
  EXPECT_EQ(back.value().params[0], Value{args});
  EXPECT_EQ(back.value().params[1], Value{"\t"});
}

// ---- codec: messages ------------------------------------------------------------

TEST(RpcCodec, CallRoundTrip) {
  MethodCall call{"sd_init", {Value{"SM"}, Value{42}}};
  Result<MethodCall> back = decode_call(encode(call));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().method, "sd_init");
  ASSERT_EQ(back.value().params.size(), 2u);
  EXPECT_EQ(back.value().params[0], Value{"SM"});
  EXPECT_EQ(back.value().params[1], Value{42});
}

TEST(RpcCodec, EmptyParamsAllowed) {
  MethodCall call{"run_exit", {}};
  Result<MethodCall> back = decode_call(encode(call));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().params.empty());
}

TEST(RpcCodec, ResponseRoundTrip) {
  Result<MethodResponse> ok =
      decode_response(encode(MethodResponse::success(Value{"done"})));
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().is_fault);
  EXPECT_EQ(ok.value().result, Value{"done"});
}

TEST(RpcCodec, FaultRoundTrip) {
  Result<MethodResponse> fault =
      decode_response(encode(MethodResponse::fault(-32601, "no such method")));
  ASSERT_TRUE(fault.ok());
  EXPECT_TRUE(fault.value().is_fault);
  EXPECT_EQ(fault.value().fault_code, -32601);
  EXPECT_EQ(fault.value().fault_string, "no such method");
}

TEST(RpcCodec, WrongRootRejected) {
  EXPECT_FALSE(decode_call("<methodResponse/>").ok());
  EXPECT_FALSE(decode_response("<methodCall/>").ok());
  EXPECT_FALSE(decode_call("garbage").ok());
}

TEST(RpcCodec, SpecExampleDecodes) {
  // Shape from Winer's spec [23].
  const char* wire =
      "<?xml version=\"1.0\"?><methodCall>"
      "<methodName>examples.getStateName</methodName>"
      "<params><param><value><i4>41</i4></value></param></params>"
      "</methodCall>";
  Result<MethodCall> call = decode_call(wire);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call.value().method, "examples.getStateName");
  EXPECT_EQ(call.value().params[0], Value{41});
}

// ---- codec: wire text ----------------------------------------------------------

// The control channel's wire text, byte for byte, as recorded from the
// DOM-based encoder this codec replaced: encode() must keep producing it.
TEST(RpcCodec, GoldenWireText) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(
      encode(MethodCall{"golden.scalars",
                        {Value{}, Value{true}, Value{false}, Value{42},
                         Value{-7}, Value{2.5}, Value{"plain"}, Value{""}}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.scalars</methodName><params><param><value><nil /></value>"
      "</param><param><value><boolean>1</boolean></value></param><param>"
      "<value><boolean>0</boolean></value></param><param><value><int>"
      "42</int></value></param><param><value><int>-7</int></value>"
      "</param><param><value><double>2.5</double></value></param><param>"
      "<value><string>plain</string></value></param><param><value>"
      "<string /></value></param></params></methodCall>");
  EXPECT_EQ(encode(MethodCall{"golden.escape",
                              {Value{"a<b & c>d \"q\" 'a' &amp;"}}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.escape</methodName><params><param><value><string>"
      "a&lt;b &amp; c&gt;d \"q\" 'a' &amp;amp;</string></value></param>"
      "</params></methodCall>");
  EXPECT_EQ(
      encode(MethodCall{
          "golden.ints",
          {Value{std::int64_t{INT32_MIN}}, Value{std::int64_t{INT32_MAX}},
           Value{std::int64_t{INT32_MAX} + 1},
           Value{std::int64_t{INT32_MIN} - 1},
           Value{std::numeric_limits<std::int64_t>::min()},
           Value{std::numeric_limits<std::int64_t>::max()}}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.ints</methodName><params><param><value><int>"
      "-2147483648</int></value></param><param><value><int>"
      "2147483647</int></value></param><param><value><i8>2147483648</i8>"
      "</value></param><param><value><i8>-2147483649</i8></value></param>"
      "<param><value><i8>-9223372036854775808</i8></value></param><param>"
      "<value><i8>9223372036854775807</i8></value></param></params>"
      "</methodCall>");
  EXPECT_EQ(
      encode(MethodCall{
          "golden.doubles",
          {Value{nan}, Value{-0.0}, Value{inf}, Value{-inf}, Value{0.1},
           Value{1e300}, Value{std::numeric_limits<double>::denorm_min()}}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.doubles</methodName><params><param><value><double>"
      "nan</double></value></param><param><value><double>-0</double>"
      "</value></param><param><value><double>inf</double></value></param>"
      "<param><value><double>-inf</double></value></param><param><value>"
      "<double>0.1</double></value></param><param><value><double>"
      "1e+300</double></value></param><param><value><double>"
      "4.94066e-324</double></value></param></params></methodCall>");
  ValueArray b64;
  for (std::size_t len = 0; len <= 4; ++len) {
    Bytes data;
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<std::uint8_t>(0xF0 + i * 5));
    }
    b64.push_back(Value{data});
  }
  EXPECT_EQ(encode(MethodCall{"golden.base64", b64}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.base64</methodName><params><param><value><base64 /></value>"
      "</param><param><value><base64>8A==</base64></value></param><param>"
      "<value><base64>8PU=</base64></value></param><param><value><base64>"
      "8PX6</base64></value></param><param><value><base64>"
      "8PX6/w==</base64></value></param></params></methodCall>");
  ValueMap inner;
  inner.emplace("list", Value{ValueArray{Value{1}, Value{"two"},
                                         Value{ValueArray{}}}});
  inner.emplace("empty", Value{ValueMap{}});
  inner.emplace("run_id", Value{7});
  ValueMap outer;
  outer.emplace("inner", Value{inner});
  outer.emplace("actor", Value{"SM"});
  EXPECT_EQ(encode(MethodCall{"golden.nested",
                              {Value{ValueArray{Value{outer}, Value{}}}}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "golden.nested</methodName><params><param><value><array><data>"
      "<value><struct><member><name>actor</name><value><string>"
      "SM</string></value></member><member><name>inner</name><value>"
      "<struct><member><name>empty</name><value><struct /></value>"
      "</member><member><name>list</name><value><array><data><value><int>"
      "1</int></value><value><string>two</string></value><value><array>"
      "<data /></array></value></data></array></value></member><member>"
      "<name>run_id</name><value><int>7</int></value></member></struct>"
      "</value></member></struct></value><value><nil /></value></data>"
      "</array></value></param></params></methodCall>");
  EXPECT_EQ(encode(MethodCall{"run_exit", {}}),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
      "run_exit</methodName><params /></methodCall>");
  EXPECT_EQ(
      encode(MethodResponse::success(Value{ValueMap{{"ok", Value{true}}}})),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodResponse><params>"
      "<param><value><struct><member><name>ok</name><value><boolean>"
      "1</boolean></value></member></struct></value></param></params>"
      "</methodResponse>");
  EXPECT_EQ(encode(MethodResponse::fault(-32601, "method not found: x<y>&z")),
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodResponse><fault>"
      "<value><struct><member><name>faultCode</name><value><int>"
      "-32601</int></value></member><member><name>faultString</name>"
      "<value><string>method not found: x&lt;y&gt;&amp;z</string></value>"
      "</member></struct></value></fault></methodResponse>");
}

// ---- codec: accepted grammar --------------------------------------------------

TEST(RpcCodec, GrammarAcceptsWhitespaceAndReferences) {
  const char* wire =
      "\n<?xml version=\"1.0\"?>\n"
      "<methodCall>\n"
      "  <methodName>a&amp;b</methodName>\n"
      "  <params>\n"
      "    <param> <value> <struct>\n"
      "      <member> <name>k&#x41;</name> <value><int> 5 </int></value>\n"
      "      </member>\n"
      "    </struct> </value> </param>\n"
      "    <param><value><string>&lt;&#60;&#x3C;&gt;&quot;&apos;</string>"
      "</value></param>\n"
      "    <param><value/></param>\n"
      "    <param><value><array><data/></array ></value></param>\n"
      "    <param><value><nil/></value></param>\n"
      "  </params >\n"
      "</methodCall>\n";
  Result<MethodCall> call = decode_call(wire);
  ASSERT_TRUE(call.ok()) << call.error().to_string();
  EXPECT_EQ(call.value().method, "a&b");
  ASSERT_EQ(call.value().params.size(), 5u);
  EXPECT_EQ(call.value().params[0], (Value{ValueMap{{"kA", Value{5}}}}));
  EXPECT_EQ(call.value().params[1], Value{"<<<>\"'"});
  EXPECT_EQ(call.value().params[2], Value{""});
  EXPECT_EQ(call.value().params[3], Value{ValueArray{}});
  EXPECT_EQ(call.value().params[4], Value{});
}

TEST(RpcCodec, GrammarRejectsOtherMarkup) {
  for (const char* wire : {
           "<methodCall><!-- c --><methodName>m</methodName></methodCall>",
           "<methodCall><methodName><![CDATA[m]]></methodName></methodCall>",
           "<methodCall><methodName>m</methodName><params><param><value>"
           "<string><![CDATA[x]]></string></value></param></params>"
           "</methodCall>",
           "<!DOCTYPE x><methodCall><methodName>m</methodName></methodCall>",
           "<methodCall><?pi x?><methodName>m</methodName></methodCall>",
           "<methodCall a=\"1\"><methodName>m</methodName></methodCall>",
           "<methodCall><methodName>m</methodName></methodCall><extra/>",
           "<methodCall><methodName>m</methodName>text</methodCall>",
           "<methodCall><methodName>m</methodName><params><param><value>"
           "x<int>1</int></value></param></params></methodCall>",
           "<methodCall><methodName>&bogus;</methodName></methodCall>",
           "<methodCall><methodName>m</methodName><params><param><value>"
           "<int>1</int><int>2</int></value></param></params></methodCall>",
       }) {
    Result<MethodCall> call = decode_call(wire);
    ASSERT_FALSE(call.ok()) << wire;
    EXPECT_EQ(call.error().code(), ErrorCode::kParse) << wire;
  }
}

// ---- codec: robustness ----------------------------------------------------------

/// A decode either succeeds or fails with kParse; it never throws.
template <typename Decode>
bool decodes(Decode decode, const std::string& wire) {
  bool ok = false;
  bool threw = false;
  try {
    auto result = decode(wire);
    ok = result.ok();
    if (!ok) {
      EXPECT_EQ(result.error().code(), ErrorCode::kParse) << wire;
    }
  } catch (...) {
    threw = true;
  }
  EXPECT_FALSE(threw) << wire;
  return ok;
}

TEST(RpcCodec, DecoderSurvivesMutations) {
  ValueMap args;
  args["run_id"] = Value{42};
  args["actor"] = Value{"SM & <co>"};
  args["blob"] = Value{Bytes{1, 2, 3, 4}};
  args["ratio"] = Value{0.25};
  args["flags"] = Value{ValueArray{Value{true}, Value{}, Value{-1}}};
  const std::string documents[] = {
      encode(MethodCall{"sd_start_search", {Value{args}, Value{"x"}}}),
      encode(MethodResponse::success(Value{args})),
      encode(MethodResponse::fault(-32000, "state: not <ready> & waiting")),
  };
  const char* inserts[] = {"<", "&", "]]>"};
  int decoded = 0;
  int rejected = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    Pcg32 rng(seed, 0xC0DEC);
    for (int i = 0; i < 300; ++i) {
      for (const std::string& document : documents) {
        std::string wire = document;
        const std::uint32_t at =
            rng.bounded(static_cast<std::uint32_t>(wire.size()));
        switch (rng.bounded(3)) {
          case 0:
            wire[at] = static_cast<char>(wire[at] ^ (1 << rng.bounded(8)));
            break;
          case 1:
            wire.resize(at);
            break;
          default:
            wire.insert(at, inserts[rng.bounded(3)]);
            break;
        }
        for (bool ok :
             {decodes([](const std::string& w) { return decode_call(w); },
                      wire),
              decodes([](const std::string& w) { return decode_response(w); },
                      wire)}) {
          ok ? ++decoded : ++rejected;
        }
      }
    }
  }
  // Both outcomes occur: some flips land in text, most break the markup.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(RpcCodec, DepthBombRejected) {
  constexpr int kLevels = 100000;
  std::string nested;
  for (int i = 0; i < kLevels; ++i) nested += "<value><array><data>";
  nested += "<value><int>1</int></value>";
  for (int i = 0; i < kLevels; ++i) nested += "</data></array></value>";
  Result<MethodCall> call = decode_call(
      "<methodCall><methodName>m</methodName><params><param>" + nested +
      "</param></params></methodCall>");
  ASSERT_FALSE(call.ok());
  EXPECT_EQ(call.error().code(), ErrorCode::kParse);
  Result<Value> value = decode_value(nested);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.error().code(), ErrorCode::kParse);

  // Nesting within the XML parser's bound still decodes.
  Value deep{1};
  for (int i = 0; i < 80; ++i) deep = Value{ValueArray{deep}};
  EXPECT_EQ(decode_call(encode(MethodCall{"m", {deep}})).value().params[0],
            deep);
}

// ---- server / transport / client ---------------------------------------------------

TEST(RpcServer, DispatchesRegisteredMethod) {
  RpcServer server;
  server.register_method("add", [](const ValueArray& params) -> Result<Value> {
    return Value{params[0].as_int() + params[1].as_int()};
  });
  EXPECT_TRUE(server.has_method("add"));
  EXPECT_EQ(server.method_count(), 1u);
  MethodResponse response = server.dispatch({"add", {Value{2}, Value{3}}});
  EXPECT_FALSE(response.is_fault);
  EXPECT_EQ(response.result, Value{5});
}

TEST(RpcServer, UnknownMethodIsFault) {
  RpcServer server;
  MethodResponse response = server.dispatch({"nope", {}});
  EXPECT_TRUE(response.is_fault);
  EXPECT_EQ(response.fault_code, -32601);
}

TEST(RpcServer, HandlerErrorsBecomeFaults) {
  RpcServer server;
  server.register_method("fail", [](const ValueArray&) -> Result<Value> {
    return err_state("not ready");
  });
  MethodResponse response = server.dispatch({"fail", {}});
  EXPECT_TRUE(response.is_fault);
  EXPECT_NE(response.fault_string.find("not ready"), std::string::npos);
}

TEST(RpcServer, HandleRoundTripsThroughXml) {
  RpcServer server;
  server.register_method("echo", [](const ValueArray& params) -> Result<Value> {
    return params.empty() ? Value{} : params[0];
  });
  Result<std::string> response_xml =
      server.handle(encode(MethodCall{"echo", {Value{"ping"}}}));
  ASSERT_TRUE(response_xml.ok());
  Result<MethodResponse> response = decode_response(response_xml.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().result, Value{"ping"});
}

TEST(RpcServer, MalformedRequestIsTransportError) {
  RpcServer server;
  EXPECT_FALSE(server.handle("not xml at all <<<").ok());
}

TEST(RpcTransport, RoutesToAttachedEndpoints) {
  RpcServer node_a;
  node_a.register_method("who", [](const ValueArray&) -> Result<Value> {
    return Value{"A"};
  });
  RpcServer node_b;
  node_b.register_method("who", [](const ValueArray&) -> Result<Value> {
    return Value{"B"};
  });
  InProcessTransport transport;
  transport.attach("A", &node_a);
  transport.attach("B", &node_b);
  EXPECT_EQ(transport.endpoint_count(), 2u);

  RpcClient client_a(transport, "A");
  RpcClient client_b(transport, "B");
  EXPECT_EQ(client_a.call("who").value(), Value{"A"});
  EXPECT_EQ(client_b.call("who").value(), Value{"B"});

  transport.detach("B");
  EXPECT_FALSE(client_b.call("who").ok());
}

TEST(RpcClient, FaultSurfacesAsRpcError) {
  RpcServer server;
  InProcessTransport transport;
  transport.attach("node", &server);
  RpcClient client(transport, "node");
  Result<Value> outcome = client.call("missing");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kRpc);
  EXPECT_NE(outcome.error().message().find("missing"), std::string::npos);
}

TEST(RpcClient, StructParameterConvention) {
  RpcServer server;
  server.register_method("inspect", [](const ValueArray& params) -> Result<Value> {
    if (params.size() != 1 || !params[0].is_map()) {
      return err_invalid("expected one struct");
    }
    const Value* run = params[0].find("run_id");
    return run ? *run : Value{};
  });
  InProcessTransport transport;
  transport.attach("node", &server);
  RpcClient client(transport, "node");
  ValueMap args;
  args["run_id"] = Value{7};
  Result<Value> outcome = client.call("inspect", {Value{args}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), Value{7});
}

}  // namespace
}  // namespace excovery::rpc
