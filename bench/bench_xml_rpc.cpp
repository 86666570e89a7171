// Zero-copy XML pipeline payoff (DESIGN.md §15).
//
// PR 9 rewrote the XML engine: arena-backed DOM with interned names and
// in-situ string_view text, a single-pass parser that eliminates per-node
// heap allocation, and a canonical writer that streams sorted-attribute
// bytes straight into SHA-256.  This bench carries a condensed copy of the
// seed implementation (unique_ptr DOM, per-character cursor parser,
// materialised canonical string — namespace `seedimpl` below) and races it
// against the live engine on the same document, so the reported speedup is
// an honest A/B on identical work:
//
//  * description parse: experiment-description XML -> DOM, gated >= 3x
//    documents/s over the seed parser (WARN-only under --smoke);
//  * canonical digest: DOM -> canonical bytes -> SHA-256, gated >= 3x
//    digests/s (the streaming path never materialises the canonical
//    string); both implementations must produce the same digest;
//  * both gates pair seed and current inside every repetition (alternating
//    which goes first, process CPU time) and compare the median of the
//    per-repetition speedups, so host drift between repetitions cancels;
//  * heap allocations per parse and per digest for both implementations;
//  * XML-RPC round trip (encode + decode of a struct-carrying call through
//    the streaming codec, which builds no DOM) — time, allocations and the
//    spread over repetitions, reported for trajectory, not gated.
//
// Results go to BENCH_xml.json (curated format, bench/collect_bench.py).
//
// Flags:
//   --smoke     small document + iteration counts, WARN-only gates — CI
//   --reps N    repetitions (default 6, median taken)
//   --out PATH  override the JSON output path (default BENCH_xml.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "core/scenario.hpp"
#include "rpc/codec.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

// The replacement operator new/delete below intentionally pair ::new with
// std::malloc/std::free (same idiom as bench_kernel_hotpath); GCC's
// heuristic cannot see that they match.
// -Wmaybe-uninitialized: GCC's tracker loses the std::variant active-member
// index when copying excovery::Value under sanitizer instrumentation and
// flags the inactive-union read it then imagines (false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ---- condensed seed implementation (pre-PR-9 engine) -----------------------
//
// A faithful reduction of the old src/xml: unique_ptr-owned elements with
// std::string fields, a Cursor parser advancing one character at a time
// with eager line/column tracking, and a canonical writer that sorts
// attribute pointers per element and appends into a growing std::string.
namespace seedimpl {

using excovery::Result;
using excovery::Status;
using excovery::err_parse;

class Element;
using ElementPtr = std::unique_ptr<Element>;

struct Attribute {
  std::string name;
  std::string value;
};

class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  const std::vector<Attribute>& attributes() const noexcept { return attrs_; }
  const std::vector<ElementPtr>& children() const noexcept {
    return children_;
  }

  bool has_attr(std::string_view name) const noexcept {
    for (const Attribute& a : attrs_) {
      if (a.name == name) return true;
    }
    return false;
  }
  void set_attr(std::string_view name, std::string_view value) {
    attrs_.push_back({std::string(name), std::string(value)});
  }
  void adopt(ElementPtr child) { children_.push_back(std::move(child)); }
  void append_text(std::string_view text) {
    text_segments_.emplace_back(text);
  }
  std::string text() const {
    std::string joined;
    for (const std::string& seg : text_segments_) joined += seg;
    return excovery::strings::trim(joined);
  }

 private:
  std::string name_;
  std::vector<Attribute> attrs_;
  std::vector<ElementPtr> children_;
  std::vector<std::string> text_segments_;
};

class Cursor {
 public:
  explicit Cursor(std::string_view input) noexcept : input_(input) {}

  bool eof() const noexcept { return pos_ >= input_.size(); }
  char peek() const noexcept { return eof() ? '\0' : input_[pos_]; }
  char peek_at(std::size_t ahead) const noexcept {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  char advance() noexcept {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  bool consume(std::string_view literal) noexcept {
    if (input_.substr(pos_).substr(0, literal.size()) != literal) return false;
    for (std::size_t i = 0; i < literal.size(); ++i) advance();
    return true;
  }
  void skip_whitespace() noexcept {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) {
      advance();
    }
  }
  excovery::Error error(std::string message) const {
    return err_parse("line " + std::to_string(line_) + ", column " +
                     std::to_string(column_) + ": " + std::move(message));
  }

 private:
  std::string_view input_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

inline bool is_name_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
inline bool is_name_char(char c) noexcept {
  return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

Result<std::string> parse_name(Cursor& cur) {
  if (!is_name_start(cur.peek())) return cur.error("expected a name");
  std::string name;
  while (!cur.eof() && is_name_char(cur.peek())) name.push_back(cur.advance());
  return name;
}

Result<std::string> parse_entity(Cursor& cur) {
  std::string entity;
  while (!cur.eof() && cur.peek() != ';') {
    entity.push_back(cur.advance());
    if (entity.size() > 8) return cur.error("unterminated entity reference");
  }
  if (cur.eof()) return cur.error("unterminated entity reference");
  cur.advance();
  if (entity == "amp") return std::string("&");
  if (entity == "lt") return std::string("<");
  if (entity == "gt") return std::string(">");
  if (entity == "apos") return std::string("'");
  if (entity == "quot") return std::string("\"");
  return cur.error("unknown entity &" + entity + ";");
}

Result<Attribute> parse_attribute(Cursor& cur) {
  EXC_ASSIGN_OR_RETURN(std::string name, parse_name(cur));
  cur.skip_whitespace();
  if (!cur.consume("=")) return cur.error("expected '='");
  cur.skip_whitespace();
  char quote = cur.peek();
  if (quote != '"' && quote != '\'') {
    return cur.error("expected quoted attribute value");
  }
  cur.advance();
  std::string value;
  while (!cur.eof() && cur.peek() != quote) {
    char c = cur.advance();
    if (c == '&') {
      EXC_ASSIGN_OR_RETURN(std::string decoded, parse_entity(cur));
      value += decoded;
    } else {
      value.push_back(c);
    }
  }
  if (cur.eof()) return cur.error("unterminated attribute value");
  cur.advance();
  return Attribute{std::move(name), std::move(value)};
}

Status skip_comment(Cursor& cur) {
  for (;;) {
    if (cur.eof()) return cur.error("unterminated comment");
    if (cur.consume("-->")) return {};
    cur.advance();
  }
}

Status skip_pi(Cursor& cur) {
  for (;;) {
    if (cur.eof()) return cur.error("unterminated processing instruction");
    if (cur.consume("?>")) return {};
    cur.advance();
  }
}

Result<ElementPtr> parse_element_at(Cursor& cur, int depth) {
  if (depth > 256) return cur.error("document nested too deeply");
  EXC_ASSIGN_OR_RETURN(std::string name, parse_name(cur));
  auto element = std::make_unique<Element>(std::move(name));
  for (;;) {
    cur.skip_whitespace();
    if (cur.consume("/>")) return element;
    if (cur.consume(">")) break;
    if (cur.eof()) return cur.error("unterminated start tag");
    EXC_ASSIGN_OR_RETURN(Attribute attr, parse_attribute(cur));
    if (element->has_attr(attr.name)) {
      return cur.error("duplicate attribute '" + attr.name + "'");
    }
    element->set_attr(attr.name, attr.value);
  }
  std::string text;
  auto flush_text = [&] {
    if (!text.empty()) {
      element->append_text(text);
      text.clear();
    }
  };
  for (;;) {
    if (cur.eof()) {
      return cur.error("unterminated element <" + element->name() + ">");
    }
    if (cur.peek() == '<') {
      if (cur.consume("<!--")) {
        EXC_TRY(skip_comment(cur));
        continue;
      }
      if (cur.consume("<![CDATA[")) {
        while (!cur.consume("]]>")) {
          if (cur.eof()) return cur.error("unterminated CDATA section");
          text.push_back(cur.advance());
        }
        continue;
      }
      if (cur.consume("<?")) {
        EXC_TRY(skip_pi(cur));
        continue;
      }
      if (cur.peek_at(1) == '/') {
        cur.advance();
        cur.advance();
        EXC_ASSIGN_OR_RETURN(std::string close, parse_name(cur));
        cur.skip_whitespace();
        if (!cur.consume(">")) return cur.error("malformed end tag");
        if (close != element->name()) return cur.error("mismatched end tag");
        flush_text();
        return element;
      }
      cur.advance();
      flush_text();
      EXC_ASSIGN_OR_RETURN(ElementPtr child, parse_element_at(cur, depth + 1));
      element->adopt(std::move(child));
      continue;
    }
    char c = cur.advance();
    if (c == '&') {
      EXC_ASSIGN_OR_RETURN(std::string decoded, parse_entity(cur));
      text += decoded;
    } else {
      text.push_back(c);
    }
  }
}

Result<ElementPtr> parse_element(std::string_view input) {
  Cursor cur(input);
  ElementPtr root;
  for (;;) {
    cur.skip_whitespace();
    if (cur.eof()) break;
    if (cur.consume("<!--")) {
      EXC_TRY(skip_comment(cur));
      continue;
    }
    if (cur.consume("<?")) {
      EXC_TRY(skip_pi(cur));
      continue;
    }
    if (!cur.consume("<")) {
      return cur.error("unexpected character data outside root element");
    }
    if (root) return cur.error("multiple root elements");
    EXC_ASSIGN_OR_RETURN(root, parse_element_at(cur, 0));
  }
  if (!root) return err_parse("document has no root element");
  return root;
}

std::string escape_attr(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string escape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void write_canonical_element(const Element& element, std::string& out) {
  out.push_back('<');
  out += element.name();
  std::vector<const Attribute*> attrs;
  attrs.reserve(element.attributes().size());
  for (const Attribute& a : element.attributes()) attrs.push_back(&a);
  std::stable_sort(attrs.begin(), attrs.end(),
                   [](const Attribute* a, const Attribute* b) {
                     return a->name < b->name;
                   });
  for (const Attribute* a : attrs) {
    out.push_back(' ');
    out += a->name;
    out += "=\"";
    out += escape_attr(a->value);
    out.push_back('"');
  }
  const std::string text = element.text();
  if (element.children().empty() && text.empty()) {
    out += "/>";
    return;
  }
  out.push_back('>');
  if (!text.empty()) out += escape_text(text);
  for (const ElementPtr& child : element.children()) {
    write_canonical_element(*child, out);
  }
  out += "</";
  out += element.name();
  out.push_back('>');
}

std::string write_canonical(const Element& root) {
  std::string out;
  write_canonical_element(root, out);
  return out;
}

/// The seed's portable scalar SHA-256 compression (the live excovery::Sha256
/// now dispatches to the CPU's SHA extensions, so the baseline carries its
/// own copy to stay a faithful pre-arena pipeline).
class Sha256 {
 public:
  Sha256()
      : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

  Sha256& update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    length_ += size;
    while (size > 0) {
      if (buffered_ == 0 && size >= 64) {
        compress(bytes);
        bytes += 64;
        size -= 64;
        continue;
      }
      const std::size_t take = std::min<std::size_t>(64 - buffered_, size);
      std::memcpy(buffer_ + buffered_, bytes, take);
      buffered_ += take;
      bytes += take;
      size -= take;
      if (buffered_ == 64) {
        compress(buffer_);
        buffered_ = 0;
      }
    }
    return *this;
  }

  Sha256& update_u64(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return update(le, sizeof(le));
  }

  Sha256& update_sized(std::string_view text) {
    update_u64(text.size());
    return update(text.data(), text.size());
  }

  std::string finish_hex() {
    const std::uint64_t bit_length = length_ * 8;
    const std::uint8_t pad_byte = 0x80;
    update(&pad_byte, 1);
    const std::uint8_t zero = 0;
    while (buffered_ != 56) update(&zero, 1);
    std::uint8_t be[8];
    for (int i = 0; i < 8; ++i) {
      be[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
    }
    update(be, sizeof(be));
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (int i = 0; i < 8; ++i) {
      for (int shift = 28; shift >= 0; shift -= 4) {
        out.push_back(kHex[(state_[i] >> shift) & 0xF]);
      }
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

  static std::uint32_t rotr(std::uint32_t x, int n) noexcept {
    return (x >> n) | (x << (32 - n));
  }

  void compress(const std::uint8_t block[64]) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{block[i * 4]} << 24) |
             (std::uint32_t{block[i * 4 + 1]} << 16) |
             (std::uint32_t{block[i * 4 + 2]} << 8) |
             std::uint32_t{block[i * 4 + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::uint64_t length_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace seedimpl

// ---- harness ---------------------------------------------------------------

namespace {

using excovery::Result;
using excovery::Sha256;
using excovery::bench::cpu_seconds;
using excovery::bench::interleaved_times;
using excovery::bench::median;
using excovery::bench::paired_speedup;
using excovery::bench::today;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Seconds per call of fn(), one sample per repetition of `iters` timed
/// iterations.
template <typename Fn>
std::vector<double> samples_per_call(int reps, int iters, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    times.push_back(seconds_since(start) / iters);
  }
  return times;
}

/// Process CPU seconds per call of fn() over `iters` calls.
template <typename Fn>
double cpu_per_call(int iters, Fn&& fn) {
  const double start = cpu_seconds();
  for (int i = 0; i < iters; ++i) fn();
  return (cpu_seconds() - start) / iters;
}

/// One A/B race: CPU seconds per call of seed() (mode 0) and current()
/// (mode 1), timed back to back in each repetition.
struct Race {
  double seed_s = 0.0;     ///< median over repetitions
  double current_s = 0.0;  ///< median over repetitions
  double speedup = 0.0;    ///< median of per-repetition seed/current
};

template <typename Seed, typename Current>
Race race(int reps, int iters, Seed&& seed, Current&& current) {
  const auto times = interleaved_times<2>(reps, [&](std::size_t m) {
    return m == 0 ? cpu_per_call(iters, seed) : cpu_per_call(iters, current);
  });
  return {median(times[0]), median(times[1]),
          paired_speedup(times[0], times[1])};
}

/// Heap allocations for a single fn() call.
template <typename Fn>
std::uint64_t allocs_per_call(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

class HashSink final : public excovery::xml::Sink {
 public:
  explicit HashSink(Sha256& hash) noexcept : hash_(hash) {}
  void write(const char* data, std::size_t size) override {
    hash_.update(data, size);
  }

 private:
  Sha256& hash_;
};

std::string streamed_digest(const excovery::xml::Element& root) {
  Sha256 hash;
  hash.update_u64(excovery::xml::canonical_size(root));
  HashSink sink(hash);
  excovery::xml::write_canonical(root, sink);
  return hash.finish_hex();
}

std::string materialised_digest(const seedimpl::Element& root) {
  seedimpl::Sha256 hash;
  hash.update_sized(seedimpl::write_canonical(root));
  return hash.finish_hex();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 6;
  std::string out = "BENCH_xml.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      reps = 3;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // The document under test: a generated experiment description — the
  // exact document class the hot paths (campaign digest, package load,
  // control channel) parse and serialise.
  excovery::core::scenario::TwoPartyOptions options;
  options.replications = smoke ? 5 : 50;
  options.environment_count = 2;
  options.sm_count = smoke ? 2 : 6;
  Result<excovery::core::ExperimentDescription> description =
      excovery::core::scenario::two_party_sd(options);
  if (!description.ok()) std::abort();
  const std::string xml_text = description.value().to_xml_text();
  const int iters = smoke ? 200 : 2000;

  std::printf("xml pipeline bench: %zu-byte description, %d reps%s\n",
              xml_text.size(), reps, smoke ? " (smoke)" : "");

  // ---- description parse ---------------------------------------------------
  Result<seedimpl::ElementPtr> seed_tree = seedimpl::parse_element(xml_text);
  Result<excovery::xml::Document> new_tree = excovery::xml::parse(xml_text);
  if (!seed_tree.ok() || !new_tree.ok()) std::abort();

  const Race parse = race(
      reps, iters,
      [&] {
        if (!seedimpl::parse_element(xml_text).ok()) std::abort();
      },
      [&] {
        if (!excovery::xml::parse(xml_text).ok()) std::abort();
      });
  const double parse_seed_s = parse.seed_s;
  const double parse_new_s = parse.current_s;
  const std::uint64_t parse_seed_allocs = allocs_per_call(
      [&] { (void)seedimpl::parse_element(xml_text); });
  const std::uint64_t parse_new_allocs = allocs_per_call(
      [&] { (void)excovery::xml::parse(xml_text); });
  const double parse_speedup = parse.speedup;

  // ---- canonical digest ----------------------------------------------------
  const std::string digest_seed = materialised_digest(*seed_tree.value());
  const std::string digest_new = streamed_digest(new_tree.value().root());
  if (digest_seed != digest_new) {
    std::fprintf(stderr,
                 "FATAL: canonical digests diverge (seed %s, current %s) — "
                 "the zero-copy pipeline changed canonical bytes\n",
                 digest_seed.c_str(), digest_new.c_str());
    return 1;
  }

  const Race digest = race(
      reps, iters, [&] { (void)materialised_digest(*seed_tree.value()); },
      [&] { (void)streamed_digest(new_tree.value().root()); });
  const double digest_seed_s = digest.seed_s;
  const double digest_new_s = digest.current_s;
  const std::uint64_t digest_seed_allocs = allocs_per_call(
      [&] { (void)materialised_digest(*seed_tree.value()); });
  const std::uint64_t digest_new_allocs = allocs_per_call(
      [&] { (void)streamed_digest(new_tree.value().root()); });
  const double digest_speedup = digest.speedup;

  // ---- XML-RPC round trip (informational) ----------------------------------
  excovery::ValueMap args;
  args["run_id"] = excovery::Value{std::int64_t{42}};
  args["actor"] = excovery::Value{"SM"};
  excovery::ValueArray batch;
  for (int i = 0; i < 16; ++i) batch.push_back(excovery::Value{args});
  excovery::rpc::MethodCall call{"sd_init", {excovery::Value{batch}}};
  auto rpc_round_trip = [&] {
    Result<excovery::rpc::MethodCall> back =
        excovery::rpc::decode_call(excovery::rpc::encode(call));
    if (!back.ok()) std::abort();
  };
  const std::vector<double> rpc_samples =
      samples_per_call(reps, iters, rpc_round_trip);
  const double rpc_s = median(rpc_samples);
  const double rpc_min_s =
      *std::min_element(rpc_samples.begin(), rpc_samples.end());
  const double rpc_max_s =
      *std::max_element(rpc_samples.begin(), rpc_samples.end());
  const std::uint64_t rpc_allocs = allocs_per_call(rpc_round_trip);

  const double mb = static_cast<double>(xml_text.size()) / (1024.0 * 1024.0);
  std::printf("  parse:  seed %8.1f us (%llu allocs)   current %8.1f us "
              "(%llu allocs)   %4.1fx   %.0f MB/s\n",
              parse_seed_s * 1e6,
              static_cast<unsigned long long>(parse_seed_allocs),
              parse_new_s * 1e6,
              static_cast<unsigned long long>(parse_new_allocs),
              parse_speedup, mb / parse_new_s);
  std::printf("  digest: seed %8.1f us (%llu allocs)   current %8.1f us "
              "(%llu allocs)   %4.1fx\n",
              digest_seed_s * 1e6,
              static_cast<unsigned long long>(digest_seed_allocs),
              digest_new_s * 1e6,
              static_cast<unsigned long long>(digest_new_allocs),
              digest_speedup);
  std::printf("  rpc round trip: %8.2f us (%llu allocs, reps %.2f-%.2f us)\n",
              rpc_s * 1e6, static_cast<unsigned long long>(rpc_allocs),
              rpc_min_s * 1e6, rpc_max_s * 1e6);

  const double gate = 3.0;
  bool failed = false;
  auto check_gate = [&](const char* what, double speedup) {
    if (speedup < gate) {
      std::fprintf(stderr,
                   "%s: %s only %.2fx faster than the seed implementation "
                   "(gate: >= %.0fx)\n",
                   smoke ? "WARN (smoke, not gated)" : "FAIL", what, speedup,
                   gate);
      failed = failed || !smoke;
    }
  };
  check_gate("description parse", parse_speedup);
  check_gate("canonical digest", digest_speedup);

  std::string json;
  json += "{\n";
  json +=
      " \"description\": \"Zero-copy XML pipeline "
      "(bench/bench_xml_rpc.cpp, DESIGN.md \\u00a715). 'seed' = the "
      "pre-arena engine (unique_ptr DOM, per-character cursor parser, "
      "materialised canonical string) embedded in the bench; 'current' = "
      "the live arena DOM / in-situ parser / streaming canonical digest, "
      "racing on the same generated experiment description, timed in "
      "process CPU back to back in every repetition (alternating which "
      "goes first). speedup is the median of the per-repetition "
      "seed/current ratios; both parse and digest are gated >= 3x on it "
      "outside --smoke, and the two canonical digests must be "
      "byte-identical. rpc_round_trip encodes and decodes "
      "a 16-struct call through the streaming XML-RPC codec (no DOM, "
      "\u00a715); its cpu_time_ns_min/max are the fastest and slowest "
      "repetition. allocations are heap allocations for a single call. "
      "Median over repetitions.\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  json += excovery::strings::format(
      "  \"BM_Xml/description_parse\": {\n"
      "   \"seed\": {\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f, "
      "\"allocations\": %llu},\n"
      "   \"current\": {\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f, "
      "\"allocations\": %llu},\n"
      "   \"speedup\": %.2f,\n"
      "   \"document_bytes\": %zu,\n"
      "   \"current_mb_per_second\": %.1f\n"
      "  },\n",
      1.0 / parse_seed_s, parse_seed_s * 1e9,
      static_cast<unsigned long long>(parse_seed_allocs), 1.0 / parse_new_s,
      parse_new_s * 1e9, static_cast<unsigned long long>(parse_new_allocs),
      parse_speedup, xml_text.size(), mb / parse_new_s);
  json += excovery::strings::format(
      "  \"BM_Xml/canonical_digest\": {\n"
      "   \"seed\": {\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f, "
      "\"allocations\": %llu},\n"
      "   \"current\": {\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f, "
      "\"allocations\": %llu},\n"
      "   \"speedup\": %.2f,\n"
      "   \"digest\": \"%s\"\n"
      "  },\n",
      1.0 / digest_seed_s, digest_seed_s * 1e9,
      static_cast<unsigned long long>(digest_seed_allocs), 1.0 / digest_new_s,
      digest_new_s * 1e9, static_cast<unsigned long long>(digest_new_allocs),
      digest_speedup, digest_new.c_str());
  json += excovery::strings::format(
      "  \"BM_Xml/rpc_round_trip\": {\n"
      "   \"current\": {\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f, "
      "\"allocations\": %llu},\n"
      "   \"cpu_time_ns_min\": %.0f,\n"
      "   \"cpu_time_ns_max\": %.0f,\n"
      "   \"repetitions\": %d\n"
      "  }\n",
      1.0 / rpc_s, rpc_s * 1e9, static_cast<unsigned long long>(rpc_allocs),
      rpc_min_s * 1e9, rpc_max_s * 1e9, reps);
  json += " }\n}\n";

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", out.c_str());
  return failed ? 1 : 0;
}
