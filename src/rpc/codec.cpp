#include "rpc/codec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>

#include "common/strings.hpp"
#include "xml/parser.hpp"

namespace excovery::rpc {

namespace {

constexpr char kDeclaration[] =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Deepest element nesting accepted, counted from the root at 0 — the
/// bound xml::parse applies to every document.
constexpr int kMaxDepth = 256;

// ---- encoder -----------------------------------------------------------------
//
// Emits exactly what the DOM writer produced for the same message with
// pretty printing off: the declaration, no inter-element whitespace,
// character data escaped with &amp; &lt; &gt; (quotes stay plain), and
// "<name />" for an element without content.

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The message under construction: one string written through a raw
/// cursor, so fixed markup compiles to inline copies of constant size.
class Out {
 public:
  explicit Out(std::size_t capacity)
      : buf_(capacity, '\0'), p_(buf_.data()), end_(p_ + buf_.size()) {}

  template <std::size_t N>
  void markup(const char (&text)[N]) {
    constexpr std::size_t kSize = N - 1;
    if (static_cast<std::size_t>(end_ - p_) < kSize) grow(kSize);
    std::memcpy(p_, text, kSize);
    p_ += kSize;
  }
  void put(const char* data, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) grow(n);
    std::memcpy(p_, data, n);
    p_ += n;
  }

  /// Character data with the writer's escapes: &amp; &lt; &gt;.
  void escaped(std::string_view text) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c != '&' && c != '<' && c != '>') continue;
      put(text.data() + start, i - start);
      if (c == '&') markup("&amp;");
      else if (c == '<') markup("&lt;");
      else markup("&gt;");
      start = i + 1;
    }
    put(text.data() + start, text.size() - start);
  }

  void integer(std::int64_t value) {
    constexpr std::size_t kMaxDigits = 20;  // "-9223372036854775808"
    if (static_cast<std::size_t>(end_ - p_) < kMaxDigits) grow(kMaxDigits);
    p_ = std::to_chars(p_, p_ + kMaxDigits, value).ptr;
  }

  void base64(const Bytes& data) {
    const std::size_t size = (data.size() + 2) / 3 * 4;
    if (static_cast<std::size_t>(end_ - p_) < size) grow(size);
    char* at = p_;
    std::size_t i = 0;
    while (i + 2 < data.size()) {
      std::uint32_t triple = (static_cast<std::uint32_t>(data[i]) << 16) |
                             (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                             data[i + 2];
      *at++ = kBase64Alphabet[(triple >> 18) & 0x3F];
      *at++ = kBase64Alphabet[(triple >> 12) & 0x3F];
      *at++ = kBase64Alphabet[(triple >> 6) & 0x3F];
      *at++ = kBase64Alphabet[triple & 0x3F];
      i += 3;
    }
    const std::size_t rest = data.size() - i;
    if (rest > 0) {
      std::uint32_t v = static_cast<std::uint32_t>(data[i]) << 16;
      if (rest == 2) v |= static_cast<std::uint32_t>(data[i + 1]) << 8;
      *at++ = kBase64Alphabet[(v >> 18) & 0x3F];
      *at++ = kBase64Alphabet[(v >> 12) & 0x3F];
      *at++ = rest == 2 ? kBase64Alphabet[(v >> 6) & 0x3F] : '=';
      *at++ = '=';
    }
    p_ = at;
  }

  std::string take() && {
    buf_.resize(static_cast<std::size_t>(p_ - buf_.data()));
    return std::move(buf_);
  }

 private:
  /// Make room for n more bytes.
  [[gnu::noinline]] void grow(std::size_t n) {
    const auto used = static_cast<std::size_t>(p_ - buf_.data());
    buf_.resize(std::max(buf_.size() * 2, used + n));
    p_ = buf_.data() + used;
    end_ = buf_.data() + buf_.size();
  }

  std::string buf_;
  char* p_;
  char* end_;
};

/// `<name>text</name>`, or `<name />` for empty text.  The text goes out
/// verbatim (escaped): leading and trailing whitespace is content.
template <std::size_t N, std::size_t M, std::size_t K>
void text_element(Out& out, const char (&open)[N], const char (&close)[M],
                  const char (&empty)[K], std::string_view text) {
  if (text.empty()) {
    out.markup(empty);
    return;
  }
  out.markup(open);
  out.escaped(text);
  out.markup(close);
}

void int_value(Out& out, std::int64_t value) {
  // XML-RPC "int" is 32-bit; use the common i8 extension when needed.
  if (value >= INT32_MIN && value <= INT32_MAX) {
    out.markup("<value><int>");
    out.integer(value);
    out.markup("</int></value>");
  } else {
    out.markup("<value><i8>");
    out.integer(value);
    out.markup("</i8></value>");
  }
}

void string_value(Out& out, std::string_view text) {
  out.markup("<value>");
  text_element(out, "<string>", "</string>", "<string />", text);
  out.markup("</value>");
}

void any_value(Out& out, const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      out.markup("<value><nil /></value>");
      return;
    case ValueType::kBool:
      if (value.as_bool()) {
        out.markup("<value><boolean>1</boolean></value>");
      } else {
        out.markup("<value><boolean>0</boolean></value>");
      }
      return;
    case ValueType::kInt:
      int_value(out, value.as_int());
      return;
    case ValueType::kDouble: {
      const std::string text = strings::format_double(value.as_double());
      out.markup("<value><double>");
      out.put(text.data(), text.size());
      out.markup("</double></value>");
      return;
    }
    case ValueType::kString:
      string_value(out, value.as_string());
      return;
    case ValueType::kBytes:
      if (value.as_bytes().empty()) {
        out.markup("<value><base64 /></value>");
        return;
      }
      out.markup("<value><base64>");
      out.base64(value.as_bytes());
      out.markup("</base64></value>");
      return;
    case ValueType::kArray:
      if (value.as_array().empty()) {
        out.markup("<value><array><data /></array></value>");
        return;
      }
      out.markup("<value><array><data>");
      for (const Value& item : value.as_array()) any_value(out, item);
      out.markup("</data></array></value>");
      return;
    case ValueType::kMap:
      if (value.as_map().empty()) {
        out.markup("<value><struct /></value>");
        return;
      }
      out.markup("<value><struct>");
      for (const auto& [name, item] : value.as_map()) {
        out.markup("<member>");
        text_element(out, "<name>", "</name>", "<name />", name);
        any_value(out, item);
        out.markup("</member>");
      }
      out.markup("</struct></value>");
      return;
  }
}

/// Estimated encoded size of a value (escapes aside), so that one buffer
/// usually holds the whole message.
std::size_t size_hint(const Value& value) {
  constexpr std::size_t kMarkup = 40;  // <value><string></string></value>
  switch (value.type()) {
    case ValueType::kString:
      return kMarkup + value.as_string().size();
    case ValueType::kBytes:
      return kMarkup + (value.as_bytes().size() + 2) / 3 * 4;
    case ValueType::kArray: {
      std::size_t n = kMarkup;
      for (const Value& item : value.as_array()) n += size_hint(item);
      return n;
    }
    case ValueType::kMap: {
      std::size_t n = kMarkup;
      for (const auto& [name, item] : value.as_map()) {
        n += 32 + name.size() + size_hint(item);  // <member><name>…
      }
      return n;
    }
    default:
      return kMarkup + 24;
  }
}

// ---- decoder -----------------------------------------------------------------
//
// A single-pass pull reader over the message text.  It accepts the XML-RPC
// grammar only: an optional leading XML declaration, whitespace between
// elements, start tags without attributes (`<x>`, `<x >`, `<x/>`), and
// character data with the predefined and numeric references.  Comments,
// CDATA sections, other processing instructions and DOCTYPEs are parse
// errors.  Text is sliced from the input; only reference-bearing text is
// copied out to be unescaped.

constexpr bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

constexpr bool is_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '-' ||
         c == '.';
}

std::string_view trim_ws(std::string_view text) noexcept {
  while (!text.empty() && is_ws(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_ws(text.back())) text.remove_suffix(1);
  return text;
}

bool all_ws(std::string_view text) noexcept {
  for (char c : text) {
    if (!is_ws(c)) return false;
  }
  return true;
}

/// Decode base64 text, skipping padding and whitespace; false on any other
/// character outside the alphabet.
bool base64_decode(std::string_view text, Bytes& out) {
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  out.reserve(text.size() / 4 * 3);
  std::uint32_t accum = 0;
  int bits = 0;
  for (char c : text) {
    if (c == '=' || is_ws(c)) continue;
    int v = value_of(c);
    if (v < 0) return false;
    accum = (accum << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((accum >> bits) & 0xFF));
    }
  }
  return true;
}

/// The pull reader.  Every step returns false on malformed input after
/// recording the problem; error() turns it into the kParse result.  Tags
/// the grammar fixes are passed as literals ("<value>", "</value>"), so the
/// canonical spelling is matched by a compare of constant size; other
/// spellings (whitespace before '>', `<x/>`) take the general path.
class Reader {
 public:
  explicit Reader(std::string_view in) noexcept : in_(in) {}

  Error error() const {
    return err_parse("XML-RPC: " + problem_ + " at byte " +
                     std::to_string(problem_at_));
  }

  /// Record `problem` and return it as the error.
  Error error(std::string_view problem) {
    fail(problem);
    return error();
  }

  /// Record the problem `what` + `detail` + `tail`; always false.  Kept
  /// out of line so the hot path carries no message building.
  [[gnu::cold, gnu::noinline]] bool fail(std::string_view what,
                                         std::string_view detail = {},
                                         std::string_view tail = {}) {
    problem_.assign(what).append(detail).append(tail);
    problem_at_ = pos_;
    return false;
  }

  /// Optional whitespace and XML declaration before the root element.
  bool prolog() {
    skip_ws();
    if (looking_at("<?xml") && pos_ + 5 < in_.size() &&
        (is_ws(in_[pos_ + 5]) || in_[pos_ + 5] == '?')) {
      std::size_t end = in_.find("?>", pos_ + 5);
      if (end == std::string_view::npos) {
        return fail("unterminated XML declaration");
      }
      pos_ = end + 2;
    }
    return true;
  }

  /// Only whitespace may follow the root element.
  bool finish() {
    skip_ws();
    return pos_ == in_.size() || fail("content after the root element");
  }

  /// Next (after whitespace) is the start tag `tag` ("<name>") in any
  /// spelling.
  template <std::size_t N>
  [[gnu::always_inline]] bool at_open(const char (&tag)[N]) {
    constexpr std::size_t kPrefix = N - 2;  // "<name"
    skip_ws();
    return in_.size() - pos_ > kPrefix &&
           std::memcmp(in_.data() + pos_, tag, kPrefix) == 0 &&
           !is_name_char(in_[pos_ + kPrefix]);
  }

  /// Next (after whitespace) is an end tag.
  [[gnu::always_inline]] bool at_close() {
    skip_ws();
    return looking_at("</");
  }

  /// Consume the start tag `tag` ("<name>"); `empty` reports <name/>.
  template <std::size_t N>
  [[gnu::always_inline]] bool open(const char (&tag)[N], bool& empty) {
    if (!at_open(tag)) return fail("expected ", tag);
    pos_ += N - 2;
    return tag_end(empty) || fail("malformed start tag ", tag);
  }

  /// Consume the end tag `tag` ("</name>"), after optional whitespace.
  template <std::size_t N>
  [[gnu::always_inline]] bool close(const char (&tag)[N]) {
    skip_ws();
    if (looking_at(tag)) {
      pos_ += N - 1;
      return true;
    }
    return close(std::string_view(tag + 2, N - 4));
  }

  /// <name>text</name> or <name/>; the text is kept exactly.
  template <std::size_t N, std::size_t M>
  bool text_element(const char (&tag)[N], const char (&end_tag)[M],
                    std::string& out) {
    bool empty = false;
    if (!open(tag, empty)) return false;
    if (empty) {
      out.clear();
      return true;
    }
    Text raw;
    return text(raw) && close(end_tag) && unescape(raw, out);
  }

  /// One <value> element at nesting depth `depth`.
  bool value(Value& out, int depth) {
    bool empty = false;
    if (!descend(depth) || !open("<value>", empty)) return false;
    if (empty) {
      out = Value{std::string()};
      return true;
    }
    Text raw;
    if (!text(raw)) return false;
    if (looking_at("</")) {
      // Bare text inside <value> is a string per the spec, kept exactly.
      return close("</value>") && string(raw, out);
    }
    // A typed child: whitespace around it is insignificant.
    if (!all_ws(raw.bytes)) {
      return fail("character data beside a typed value");
    }
    if (!descend(depth + 1)) return false;
    ++pos_;  // '<'
    std::size_t name_start = pos_;
    while (pos_ < in_.size() && is_name_char(in_[pos_])) ++pos_;
    std::string_view type = in_.substr(name_start, pos_ - name_start);
    if (type.empty()) return fail("expected a value type element");
    if (!tag_end(empty)) {
      return fail("malformed start tag <", type, ">");
    }
    return typed(type, empty, out, depth + 1) && close("</value>");
  }

 private:
  template <std::size_t N>
  [[gnu::always_inline]] bool looking_at(
      const char (&literal)[N]) const noexcept {
    return in_.size() - pos_ >= N - 1 &&
           std::memcmp(in_.data() + pos_, literal, N - 1) == 0;
  }

  [[gnu::always_inline]] bool descend(int depth) {
    return depth <= kMaxDepth || fail("document nested too deeply");
  }

  [[gnu::always_inline]] void skip_ws() noexcept {
    while (pos_ < in_.size() && is_ws(in_[pos_])) ++pos_;
  }

  /// After a start tag's name: optional whitespace, then '>' or '/>'.
  [[gnu::always_inline]] bool tag_end(bool& empty) noexcept {
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == '>') {
      ++pos_;
      empty = false;
      return true;
    }
    if (looking_at("/>")) {
      pos_ += 2;
      empty = true;
      return true;
    }
    return false;
  }

  /// The end tag </name> of a name known only at run time, in any spelling.
  bool close(std::string_view name) {
    skip_ws();
    if (in_.size() - pos_ >= name.size() + 3 && looking_at("</") &&
        in_.compare(pos_ + 2, name.size(), name) == 0) {
      std::size_t end = pos_ + 2 + name.size();
      while (end < in_.size() && is_ws(in_[end])) ++end;
      if (end < in_.size() && in_[end] == '>') {
        pos_ = end + 1;
        return true;
      }
    }
    return fail("expected </", name, ">");
  }

  /// Raw character data, and whether it holds a reference.
  struct Text {
    std::string_view bytes;
    bool has_reference = false;
  };

  /// Character data up to the next '<', which must exist.
  [[gnu::always_inline]] bool text(Text& raw) {
    const std::size_t start = pos_;
    bool reference = false;
    for (; pos_ < in_.size(); ++pos_) {
      const char c = in_[pos_];
      if (c == '<') {
        raw = {in_.substr(start, pos_ - start), reference};
        return true;
      }
      reference |= c == '&';
    }
    return fail("unterminated element");
  }

  bool unescape(const Text& raw, std::string& out) {
    if (!raw.has_reference) {
      out.assign(raw.bytes);
      return true;
    }
    out.clear();
    Status status = xml::append_unescaped(raw.bytes, out);
    return status.ok() || fail(status.error().message());
  }

  /// `out` becomes the string `raw` holds.
  bool string(const Text& raw, Value& out) {
    if (!raw.has_reference) {
      out = Value{std::string(raw.bytes)};
      return true;
    }
    std::string s;
    if (!unescape(raw, s)) return false;
    out = Value{std::move(s)};
    return true;
  }

  /// Character data of a scalar element through its end tag, with
  /// references decoded (into scratch_) and surrounding whitespace trimmed.
  bool scalar_text(bool empty, std::string_view name, std::string_view& out) {
    out = {};
    if (empty) return true;
    Text raw;
    if (!text(raw) || !close(name)) return false;
    out = raw.bytes;
    if (raw.has_reference) {
      if (!unescape(raw, scratch_)) return false;
      out = scratch_;
    }
    out = trim_ws(out);
    return true;
  }

  /// The typed child of a <value> (start tag consumed), through its end tag.
  bool typed(std::string_view type, bool empty, Value& out, int depth) {
    if (type == "string") {
      if (empty) {
        out = Value{std::string()};
        return true;
      }
      Text raw;
      return text(raw) && close("</string>") && string(raw, out);
    }
    if (type == "struct") return structure(empty, out, depth);
    if (type == "array") return array(empty, out, depth);
    if (type == "nil") {
      if (!empty && !close("</nil>")) return false;
      out = Value{};
      return true;
    }
    std::string_view t;
    if (!scalar_text(empty, type, t)) return false;
    if (type == "int" || type == "i4" || type == "i8") {
      std::int64_t v = 0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return fail("bad integer '", t, "'");
      }
      out = Value{v};
      return true;
    }
    if (type == "boolean") {
      if (t == "1" || t == "true") {
        out = Value{true};
      } else if (t == "0" || t == "false") {
        out = Value{false};
      } else {
        return fail("bad boolean '", t, "'");
      }
      return true;
    }
    if (type == "double") {
      double v = 0.0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return fail("bad double '", t, "'");
      }
      out = Value{v};
      return true;
    }
    if (type == "base64") {
      Bytes bytes;
      if (!base64_decode(t, bytes)) return fail("bad base64 character");
      out = Value{std::move(bytes)};
      return true;
    }
    return fail("unknown XML-RPC scalar type <", type, ">");
  }

  /// <array><data><value/>*</data></array>; `depth` is the array's.
  bool array(bool empty, Value& out, int depth) {
    if (empty) return fail("expected <data>");
    bool data_empty = false;
    if (!descend(depth + 1) || !open("<data>", data_empty)) return false;
    ValueArray items;
    if (!data_empty) {
      while (!at_close()) {
        items.emplace_back();
        if (!value(items.back(), depth + 2)) return false;
      }
      if (!close("</data>")) return false;
    }
    if (!close("</array>")) return false;
    out = Value{std::move(items)};
    return true;
  }

  /// <struct><member><name/><value/></member>*</struct>.  A repeated name
  /// keeps its first value.
  bool structure(bool empty, Value& out, int depth) {
    ValueMap map;
    if (!empty) {
      if (!descend(depth + 2)) return false;
      while (!at_close()) {
        bool member_empty = false;
        if (!open("<member>", member_empty)) return false;
        if (member_empty) return fail("expected <name>");
        std::string name;
        Value item;
        if (!text_element("<name>", "</name>", name) ||
            !value(item, depth + 2) || !close("</member>")) {
          return false;
        }
        map.emplace_hint(map.end(), std::move(name), std::move(item));
      }
      if (!close("</struct>")) return false;
    }
    out = Value{std::move(map)};
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string scratch_;  ///< unescaped scalar text
  std::string problem_;  ///< the first malformation found
  std::size_t problem_at_ = 0;
};

}  // namespace

std::string encode_value(const Value& value) {
  Out out(size_hint(value));
  any_value(out, value);
  return std::move(out).take();
}

Result<Value> decode_value(std::string_view value_text) {
  Reader reader(value_text);
  Result<Value> value = Value{};
  if (!reader.value(value.value(), 0) || !reader.finish()) {
    return reader.error();
  }
  return value;
}

std::string encode(const MethodCall& call) {
  std::size_t hint = (sizeof kDeclaration - 1) + 64 + call.method.size();
  for (const Value& param : call.params) hint += 16 + size_hint(param);
  Out out(hint);
  out.markup(kDeclaration);
  out.markup("<methodCall>");
  text_element(out, "<methodName>", "</methodName>", "<methodName />",
               call.method);
  if (call.params.empty()) {
    out.markup("<params />");
  } else {
    out.markup("<params>");
    for (const Value& param : call.params) {
      out.markup("<param>");
      any_value(out, param);
      out.markup("</param>");
    }
    out.markup("</params>");
  }
  out.markup("</methodCall>");
  return std::move(out).take();
}

std::string encode(const MethodResponse& response) {
  if (response.is_fault) {
    Out out((sizeof kDeclaration - 1) + 200 + response.fault_string.size());
    out.markup(kDeclaration);
    out.markup(
        "<methodResponse><fault><value><struct>"
        "<member><name>faultCode</name>");
    int_value(out, response.fault_code);
    out.markup("</member><member><name>faultString</name>");
    string_value(out, response.fault_string);
    out.markup("</member></struct></value></fault></methodResponse>");
    return std::move(out).take();
  }
  Out out((sizeof kDeclaration - 1) + 80 + size_hint(response.result));
  out.markup(kDeclaration);
  out.markup("<methodResponse><params><param>");
  any_value(out, response.result);
  out.markup("</param></params></methodResponse>");
  return std::move(out).take();
}

Result<MethodCall> decode_call(std::string_view xml_text) {
  Reader r(xml_text);
  MethodCall call;
  bool empty = false;
  if (!r.prolog() || !r.open("<methodCall>", empty)) return r.error();
  if (empty) return r.error("<methodCall> has no <methodName>");
  if (!r.text_element("<methodName>", "</methodName>", call.method)) {
    return r.error();
  }
  if (r.at_open("<params>")) {
    if (!r.open("<params>", empty)) return r.error();
    while (!empty && !r.at_close()) {
      bool param_empty = false;
      if (!r.open("<param>", param_empty)) return r.error();
      if (param_empty) return r.error("<param> has no <value>");
      call.params.emplace_back();
      if (!r.value(call.params.back(), 3) || !r.close("</param>")) {
        return r.error();
      }
    }
    if (!empty && !r.close("</params>")) return r.error();
  }
  if (!r.close("</methodCall>") || !r.finish()) return r.error();
  return call;
}

Result<MethodResponse> decode_response(std::string_view xml_text) {
  Reader r(xml_text);
  MethodResponse response;
  bool empty = false;
  if (!r.prolog() || !r.open("<methodResponse>", empty)) return r.error();
  if (empty) return r.error("<methodResponse> is empty");
  if (r.at_open("<fault>")) {
    Value detail;
    if (!r.open("<fault>", empty)) return r.error();
    if (empty) return r.error("<fault> has no <value>");
    if (!r.value(detail, 2) || !r.close("</fault>")) return r.error();
    if (!detail.is_map()) return r.error("fault detail is not a struct");
    response.is_fault = true;
    if (const Value* code = detail.find("faultCode")) {
      Result<std::int64_t> c = code->to_int();
      if (!c.ok()) return r.error(c.error().message());
      response.fault_code = static_cast<int>(c.value());
    }
    if (const Value* message = detail.find("faultString")) {
      response.fault_string = message->to_text();
    }
  } else {
    bool param_empty = false;
    if (!r.open("<params>", empty)) return r.error();
    if (empty) return r.error("<params> has no <param>");
    if (!r.open("<param>", param_empty)) return r.error();
    if (param_empty) return r.error("<param> has no <value>");
    if (!r.value(response.result, 3) || !r.close("</param>") ||
        !r.close("</params>")) {
      return r.error();
    }
  }
  if (!r.close("</methodResponse>") || !r.finish()) return r.error();
  return response;
}

}  // namespace excovery::rpc
