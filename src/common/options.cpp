#include "common/options.hpp"

#include <stdexcept>

#include "common/error.hpp"

namespace ocelot {

double parse_double_option(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("bad " + key + " value: " + value);
  }
}

std::uint64_t parse_uint_option(const std::string& key,
                                const std::string& value) {
  try {
    // stoull accepts and wraps a leading sign (and skips leading
    // whitespace); an unsigned option value never has either.
    if (value.empty() || value[0] < '0' || value[0] > '9') {
      throw std::invalid_argument(value);
    }
    std::size_t consumed = 0;
    const unsigned long long v = std::stoull(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("bad " + key + " value: " + value);
  }
}

std::size_t parse_count_option(const std::string& key,
                               const std::string& value) {
  const std::uint64_t v = parse_uint_option(key, value);
  if (v == 0) throw InvalidArgument("bad " + key + " value: " + value);
  return static_cast<std::size_t>(v);
}

OptionSet OptionSet::from_args(const std::vector<std::string>& args,
                               const std::string& context) {
  OptionSet options;
  for (const std::string& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument(context + " options are key=value, got: " + arg);
    }
    options.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return options;
}

OptionSet OptionSet::from_line(const std::string& line,
                               const std::string& context) {
  std::vector<std::string> args;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > pos) args.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return from_args(args, context);
}

void OptionSet::set(const std::string& key, const std::string& value) {
  if (Entry* e = find(key)) {
    e->value = value;  // last wins, position and consumption kept
    return;
  }
  entries_.push_back({key, value, /*consumed=*/false});
}

bool OptionSet::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::optional<std::size_t> OptionSet::index_of(const std::string& key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key) return i;
  }
  return std::nullopt;
}

std::optional<std::string> OptionSet::take(const std::string& key) {
  if (Entry* e = find(key)) {
    e->consumed = true;
    return e->value;
  }
  return std::nullopt;
}

std::string OptionSet::get_string(const std::string& key,
                                  const std::string& def) {
  const auto v = take(key);
  return v.has_value() ? *v : def;
}

double OptionSet::get_double(const std::string& key, double def) {
  const auto v = take(key);
  return v.has_value() ? parse_double_option(key, *v) : def;
}

std::size_t OptionSet::get_count(const std::string& key, std::size_t def) {
  const auto v = take(key);
  return v.has_value() ? parse_count_option(key, *v) : def;
}

std::uint64_t OptionSet::get_uint(const std::string& key, std::uint64_t def) {
  const auto v = take(key);
  return v.has_value() ? parse_uint_option(key, *v) : def;
}

bool OptionSet::get_flag(const std::string& key, bool def) {
  const auto v = take(key);
  if (!v.has_value()) return def;
  if (*v != "0" && *v != "1") {
    throw InvalidArgument("bad " + key + " value: " + *v + " (expected 0|1)");
  }
  return *v == "1";
}

std::string OptionSet::get_choice(const std::string& key,
                                  const std::vector<std::string>& choices,
                                  const std::string& def,
                                  const std::string& label) {
  const auto v = take(key);
  if (!v.has_value()) return def;
  for (const std::string& choice : choices) {
    if (*v == choice) return *v;
  }
  std::string expected;
  for (const std::string& choice : choices) {
    if (!expected.empty()) expected += '|';
    expected += choice;
  }
  throw InvalidArgument("unknown " + (label.empty() ? key : label) + ": " +
                        *v + " (expected " + expected + ")");
}

std::vector<std::string> OptionSet::get_list(const std::string& key) {
  const auto v = take(key);
  std::vector<std::string> parts;
  if (!v.has_value()) return parts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = v->find(',', pos);
    if (comma == std::string::npos) {
      parts.push_back(v->substr(pos));
      return parts;
    }
    parts.push_back(v->substr(pos, comma - pos));
    pos = comma + 1;
  }
}

void OptionSet::reject_unknown(const std::string& context,
                               const std::string& noun) const {
  for (const Entry& e : entries_) {
    if (!e.consumed) {
      throw InvalidArgument("unknown " + context + " " + noun + ": " + e.key);
    }
  }
}

std::string OptionSet::canonical_line(bool unconsumed_only) const {
  std::string line;
  for (const Entry& e : entries_) {
    if (unconsumed_only && e.consumed) continue;
    if (!line.empty()) line += ' ';
    line += e.key;
    line += '=';
    line += e.value;
  }
  return line;
}

OptionSet::Entry* OptionSet::find(const std::string& key) {
  for (Entry& e : entries_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

const OptionSet::Entry* OptionSet::find(const std::string& key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

}  // namespace ocelot
