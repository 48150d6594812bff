#pragma once
// Typed key=value option parsing shared by the CLI and the daemon.
//
// Every front end speaks the same option dialect — `ocelot compress
// eb=1e-3 backend=multigrid`, `ocelot serve unix=/tmp/o.sock`, the
// per-request option field of an ocelotd frame, and each
// `ocelot simulate app=RTM,at=30` campaign spec are all whitespace-,
// argv- or comma-separated key=value pairs. OptionSet centralizes the
// parsing that used to live as ad-hoc loops in the CLI: last-wins
// assignment, typed getters with uniform error messages, and
// unknown-key rejection after the known keys have been consumed, so a
// typo'd knob fails the command instead of being silently ignored (on
// the wire: instead of silently compressing with defaults).
//
// Usage pattern: construct from argv tail or a wire line, pull the
// keys you understand through the typed getters (each marks its key
// consumed), then call reject_unknown() — it throws on the first key
// nobody claimed, in the order the user wrote them.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ocelot {

class OptionSet {
 public:
  OptionSet() = default;

  /// Parses argv-style args, each of which must be key=value; throws
  /// InvalidArgument("<context> options are key=value, got: <arg>")
  /// otherwise. Duplicate keys keep their first position, last value.
  static OptionSet from_args(const std::vector<std::string>& args,
                             const std::string& context);

  /// Parses a whitespace-separated key=value line (the daemon's
  /// per-request option frame). Empty input yields an empty set.
  static OptionSet from_line(const std::string& line,
                             const std::string& context);

  /// Inserts or overwrites (last wins, first position kept).
  void set(const std::string& key, const std::string& value);

  /// True when `key` was given (regardless of consumption).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Insertion position of `key`, for order-sensitive aliases.
  [[nodiscard]] std::optional<std::size_t> index_of(
      const std::string& key) const;

  /// Raw value if present; marks the key consumed.
  std::optional<std::string> take(const std::string& key);

  /// Typed getters: return the default when the key is absent, throw
  /// InvalidArgument("bad <key> value: <value>") on a malformed one.
  /// Each marks its key consumed.
  std::string get_string(const std::string& key, const std::string& def = "");
  double get_double(const std::string& key, double def);
  /// Positive integer ("bad <key> value" on 0, sign, or trailing junk).
  std::size_t get_count(const std::string& key, std::size_t def);
  /// Non-negative integer: like get_count, but 0 is allowed (seeds).
  std::uint64_t get_uint(const std::string& key, std::uint64_t def);
  /// "0" or "1" only ("bad <key> value: <v> (expected 0|1)").
  bool get_flag(const std::string& key, bool def);
  /// One of `choices`; `label` names the option in the error message
  /// ("unknown <label>: <v> (expected a|b)"), defaulting to the key.
  std::string get_choice(const std::string& key,
                         const std::vector<std::string>& choices,
                         const std::string& def, const std::string& label = "");
  /// Comma-split list; empty vector when absent.
  std::vector<std::string> get_list(const std::string& key);

  /// Throws InvalidArgument("unknown <context> <noun>: <key>") for the
  /// first key (in insertion order) no getter consumed.
  void reject_unknown(const std::string& context,
                      const std::string& noun = "option") const;

  /// "k=v k=v ..." in insertion order — the canonical wire form a
  /// client sends and the daemon re-parses with this same class.
  /// `unconsumed_only` skips keys a getter already claimed (so a
  /// client can strip its own transport keys and forward the rest).
  [[nodiscard]] std::string canonical_line(bool unconsumed_only = false) const;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool consumed = false;
  };

  Entry* find(const std::string& key);
  [[nodiscard]] const Entry* find(const std::string& key) const;

  std::vector<Entry> entries_;  ///< insertion order; small N, linear scans
};

/// Standalone value parsers behind the typed getters, shared with call
/// sites that validate values inside a list (eb_scales entries, the
/// name:weight:... parts of tenants=). Campaign specs need none of
/// them: each comma-split spec is an OptionSet of its own.
double parse_double_option(const std::string& key, const std::string& value);
std::uint64_t parse_uint_option(const std::string& key,
                                const std::string& value);
std::size_t parse_count_option(const std::string& key,
                               const std::string& value);

}  // namespace ocelot
