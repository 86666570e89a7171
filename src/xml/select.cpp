#include "xml/select.hpp"

#include "common/strings.hpp"

namespace excovery::xml {

namespace {

struct Step {
  std::string name;           // element name or "*"
  std::string attr_name;      // predicate attribute, empty if none
  std::string attr_value;
  int index = -1;             // 1-based positional predicate, -1 if none
};

std::vector<Step> parse_path(std::string_view path) {
  std::vector<Step> steps;
  for (const std::string& raw : strings::split(path, '/')) {
    if (raw.empty()) continue;
    Step step;
    std::size_t bracket = raw.find('[');
    if (bracket == std::string::npos) {
      step.name = raw;
    } else {
      step.name = raw.substr(0, bracket);
      std::string pred = raw.substr(bracket + 1);
      if (!pred.empty() && pred.back() == ']') pred.pop_back();
      if (!pred.empty() && pred[0] == '@') {
        std::size_t eq = pred.find('=');
        if (eq != std::string::npos) {
          step.attr_name = pred.substr(1, eq - 1);
          const std::string_view value =
              std::string_view(pred).substr(eq + 1);
          const bool single_quoted = value.size() >= 2 &&
                                     value.front() == '\'' &&
                                     value.back() == '\'';
          step.attr_value =
              single_quoted ? std::string(value.substr(1, value.size() - 2))
                            : strings::strip_quotes(value);
        }
      } else {
        step.index = std::atoi(pred.c_str());
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

bool matches(const Element& e, const Step& step) {
  if (step.name != "*" && e.name() != step.name) return false;
  if (!step.attr_name.empty()) {
    const std::string_view* v = e.attr(step.attr_name);
    if (!v || *v != step.attr_value) return false;
  }
  return true;
}

void apply_step(const std::vector<const Element*>& in, const Step& step,
                std::vector<const Element*>& out) {
  for (const Element* e : in) {
    int position = 0;
    for (const Element& child : e->children()) {
      if (matches(child, step)) {
        ++position;
        if (step.index < 0 || position == step.index) {
          out.push_back(&child);
        }
      }
    }
  }
}

}  // namespace

std::vector<const Element*> select_all(const Element& root,
                                       std::string_view path) {
  std::vector<const Element*> current{&root};
  for (const Step& step : parse_path(path)) {
    std::vector<const Element*> next;
    apply_step(current, step, next);
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

const Element* select_first(const Element& root, std::string_view path) {
  std::vector<const Element*> all = select_all(root, path);
  return all.empty() ? nullptr : all.front();
}

Result<const Element*> select_required(const Element& root,
                                       std::string_view path) {
  const Element* e = select_first(root, path);
  if (!e) {
    return err_not_found("no element matches path '" + std::string(path) +
                         "' under <" + std::string(root.name()) + ">");
  }
  return e;
}

std::vector<const Element*> select_all_recursive(const Element& root,
                                                 std::string_view name) {
  // Preorder walk over the sibling-linked tree: visit a node, descend into
  // its first child, and resume pending siblings from the stack — document
  // order without materialising child lists.
  std::vector<const Element*> out;
  std::vector<const Element*> pending;
  const Element* cur = root.first_child();
  while (cur) {
    if (cur->name() == name) out.push_back(cur);
    if (cur->next_sibling()) pending.push_back(cur->next_sibling());
    if (cur->first_child()) {
      cur = cur->first_child();
    } else if (!pending.empty()) {
      cur = pending.back();
      pending.pop_back();
    } else {
      cur = nullptr;
    }
  }
  return out;
}

std::string select_text_or(const Element& root, std::string_view path,
                           std::string_view fallback) {
  const Element* e = select_first(root, path);
  return e ? e->text() : std::string(fallback);
}

}  // namespace excovery::xml
