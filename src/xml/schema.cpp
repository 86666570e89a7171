#include "xml/schema.hpp"

#include <algorithm>
#include <string_view>

#include "common/strings.hpp"

namespace excovery::xml {

Status Schema::validate(const Element& root, bool strict) const {
  std::vector<std::string> problems;
  std::string path = "/";
  path += root.name();
  validate_element(root, strict, path, problems);
  if (problems.empty()) return {};
  return err_validation(strings::join(problems, "; "));
}

void Schema::validate_element(const Element& element, bool strict,
                              const std::string& path,
                              std::vector<std::string>& problems) const {
  const ElementRule* rule = find(element.name());
  if (!rule) {
    if (strict) {
      problems.push_back(path + ": unknown element");
    }
    // Even without a rule, recurse so descendants with rules are checked.
    for (const Element& child : element.children()) {
      validate_element(child, strict, path + "/" + std::string(child.name()),
                       problems);
    }
    return;
  }

  // Attributes.
  for (const auto& [name, attr_rule] : rule->attributes) {
    const std::string_view* v = element.attr(name);
    if (!v) {
      if (attr_rule.required) {
        problems.push_back(path + ": missing required attribute '" + name +
                           "'");
      }
      continue;
    }
    if (!attr_rule.allowed_values.empty() &&
        std::find(attr_rule.allowed_values.begin(),
                  attr_rule.allowed_values.end(),
                  *v) == attr_rule.allowed_values.end()) {
      problems.push_back(path + ": attribute '" + name + "' has value '" +
                         std::string(*v) + "' not in {" +
                         strings::join(attr_rule.allowed_values, ", ") + "}");
    }
  }
  if (!rule->allow_other_attrs) {
    for (const Attribute& a : element.attributes()) {
      if (rule->attributes.find(a.name) == rule->attributes.end()) {
        problems.push_back(path + ": unexpected attribute '" +
                           std::string(a.name) + "'");
      }
    }
  }

  // Children occurrence counts (keys are interned names owned by the
  // document, so views are safe for the duration of validation).
  std::map<std::string_view, std::size_t> counts;
  for (const Element& child : element.children()) {
    ++counts[child.name()];
  }
  for (const auto& [name, occurs] : rule->children) {
    std::size_t n = 0;
    if (auto it = counts.find(name); it != counts.end()) n = it->second;
    if (n < occurs.min) {
      problems.push_back(path + ": child <" + name + "> occurs " +
                         std::to_string(n) + " time(s), minimum " +
                         std::to_string(occurs.min));
    }
    if (n > occurs.max) {
      problems.push_back(path + ": child <" + name + "> occurs " +
                         std::to_string(n) + " time(s), maximum " +
                         std::to_string(occurs.max));
    }
  }
  if (!rule->allow_other_children) {
    for (const auto& [name, n] : counts) {
      (void)n;
      if (rule->children.find(name) == rule->children.end()) {
        problems.push_back(path + ": unexpected child <" + std::string(name) +
                           ">");
      }
    }
  }

  // Text policy.
  if (!rule->allow_text && element.has_text()) {
    problems.push_back(path + ": character data not allowed here");
  }

  // Recurse.
  std::map<std::string_view, std::size_t> sibling_index;
  for (const Element& child : element.children()) {
    std::size_t idx = ++sibling_index[child.name()];
    std::string child_path = path;
    child_path += '/';
    child_path += child.name();
    if (counts[child.name()] > 1) {
      child_path += '[';
      child_path += std::to_string(idx);
      child_path += ']';
    }
    validate_element(child, strict, child_path, problems);
  }
}

}  // namespace excovery::xml
