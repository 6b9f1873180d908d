#include "service/wire.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "obs/json_writer.h"
#include "util/jsonio.h"
#include "util/strings.h"

namespace coolopt::service {

// --- JsonValue ---

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

// --- strict parser ---

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = util::strf("trailing garbage at offset %zu", pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(std::string message) {
    if (error_.empty()) {
      error_ = util::strf("%s at offset %zu", message.c_str(), pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, size_t depth) {
    if (depth > kMaxJsonDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = c == 't';
        if (!literal(out.bool_ ? "true" : "false")) return fail("bad literal");
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out.kind_ = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, size_t depth) {
    out.kind_ = JsonValue::Kind::kObject;
    return parse_list('}', "object", [&] {
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        return fail(util::strf("duplicate key \"%s\"", key.c_str()));
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      return true;
    });
  }

  bool parse_array(JsonValue& out, size_t depth) {
    out.kind_ = JsonValue::Kind::kArray;
    return parse_list(']', "array", [&] {
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      return true;
    });
  }

  /// The shared object/array walk: the opening bracket at pos_, then
  /// `item`s separated by commas up to `close`.
  template <class Item>
  bool parse_list(char close, const char* what, Item&& item) {
    ++pos_;  // '{' or '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!item()) return false;
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail(util::strf("unterminated %s", what));
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == close) {
        ++pos_;
        return true;
      }
      return fail(util::strf("expected ',' or '%c'", close));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are accepted as
          // two escapes and encoded individually — fine for the ASCII
          // protocol fields this parser actually carries).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const size_t start = pos_;
    if (!util::json_scan_number(text_, pos_)) return fail("bad number");
    const std::string token(text_.substr(start, pos_ - start));
    out.kind_ = JsonValue::Kind::kNumber;
    out.number_ = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  return JsonParser(text).parse(out, error);
}

// --- priorities ---

namespace {
constexpr const char* kPriorityNames[] = {"high", "normal", "low"};
}  // namespace

const char* to_string(Priority priority) {
  return kPriorityNames[static_cast<size_t>(priority)];
}

bool parse_priority(std::string_view name, Priority& out) {
  for (size_t i = 0; i < std::size(kPriorityNames); ++i) {
    if (name == kPriorityNames[i]) {
      out = static_cast<Priority>(i);
      return true;
    }
  }
  return false;
}

namespace {

/// Non-negative integral number (ids, scenario numbers, machine indices).
bool as_uint(const JsonValue& v, uint64_t& out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15) return false;
  out = static_cast<uint64_t>(d);
  return true;
}

/// Optional integer field: when present it must be an integer >= `min`
/// (`dst` is a uint64_t or an optional of one), else it "must be <rule>".
template <class Dst>
bool uint_field(const JsonValue& doc, const char* name, uint64_t min,
                const char* rule, Dst& dst, std::string& error) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return true;
  uint64_t n = 0;
  if (as_uint(*v, n) && n >= min) {
    dst = n;
    return true;
  }
  error = util::strf("\"%s\" must be %s", name, rule);
  return false;
}

// --- per-verb field parsers (VerbSpec::parse) ---

bool scenario_field(const JsonValue& v, int& dst, std::string& error) {
  uint64_t n = 0;
  if (!as_uint(v, n) || n < 1 || n > 8) {
    error = "\"scenario\" must be a Fig. 4 number in 1..8";
    return false;
  }
  dst = static_cast<int>(n);
  return true;
}

/// `dst` is a double or an optional of one.
template <class Dst>
bool finite_number(const JsonValue& v, const char* name, Dst& dst,
                   std::string& error) {
  if (!v.is_number() || !std::isfinite(v.as_number())) {
    error = util::strf("\"%s\" must be a finite number", name);
    return false;
  }
  dst = v.as_number();
  return true;
}

/// Optional number field that, when present, must be finite and > 0.
bool positive_field(const JsonValue& doc, const char* name, double& dst,
                    std::string& error) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return true;
  if (!finite_number(*v, name, dst, error)) return false;
  if (dst > 0.0) return true;
  error = util::strf("\"%s\" must be positive", name);
  return false;
}

/// Optional array of `what` indices (non-negative integers).
bool index_array(const JsonValue& doc, const char* name, const char* what,
                 std::vector<size_t>& dst, std::string& error) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return true;
  if (!v->is_array()) {
    error = util::strf("\"%s\" must be an array of %s indices", name, what);
    return false;
  }
  for (const JsonValue& item : v->items()) {
    uint64_t index = 0;
    if (!as_uint(item, index)) {
      error = util::strf("\"%s\" entries must be non-negative integers", name);
      return false;
    }
    dst.push_back(static_cast<size_t>(index));
  }
  return true;
}

bool parse_none(const JsonValue&, WireRequest&, std::string&) { return true; }

/// plan: machine indices of one room.
bool parse_plan_targets(const JsonValue& doc, WireRequest& out,
                        std::string& error) {
  return index_array(doc, "quarantined", "machine", out.quarantined, error);
}

/// fleetplan: {"shard","machine"} quarantines, then down shards.
bool parse_fleet_targets(const JsonValue& doc, WireRequest& out,
                         std::string& error) {
  if (const JsonValue* q = doc.find("quarantined")) {
    if (!q->is_array()) {
      error = "\"quarantined\" must be an array of "
              "{\"shard\",\"machine\"} objects";
      return false;
    }
    for (const JsonValue& item : q->items()) {
      const JsonValue* shard = item.find("shard");
      const JsonValue* machine = item.find("machine");
      uint64_t s_index = 0;
      uint64_t m_index = 0;
      if (!item.is_object() || item.members().size() != 2 ||
          shard == nullptr || machine == nullptr ||
          !as_uint(*shard, s_index) || !as_uint(*machine, m_index)) {
        error = "\"quarantined\" entries must be objects with exactly "
                "non-negative integer \"shard\" and \"machine\"";
        return false;
      }
      out.fleet_quarantined.push_back(fleet::ShardMachine{
          static_cast<size_t>(s_index), static_cast<size_t>(m_index)});
    }
  }
  return index_array(doc, "down_shards", "shard", out.down_shards, error);
}

/// plan / fleetplan: scenario, exactly one of load_pct / load, the verb's
/// own `Targets`, then the optional trace id and deadline.
template <bool (*Targets)(const JsonValue&, WireRequest&, std::string&)>
bool parse_planned(const JsonValue& doc, WireRequest& out,
                   std::string& error) {
  if (const JsonValue* s = doc.find("scenario")) {
    if (!scenario_field(*s, out.scenario, error)) return false;
  }
  const char* verb = verb_spec(out.verb).name;
  const JsonValue* pct = doc.find("load_pct");
  const JsonValue* abs = doc.find("load");
  if (pct == nullptr && abs == nullptr) {
    error = util::strf("%s needs \"load_pct\" or \"load\"", verb);
    return false;
  }
  if (pct != nullptr && abs != nullptr) {
    error = util::strf("%s takes \"load_pct\" or \"load\", not both", verb);
    return false;
  }
  return (pct == nullptr ||
          finite_number(*pct, "load_pct", out.load_pct, error)) &&
         (abs == nullptr ||
          finite_number(*abs, "load", out.load_files_s, error)) &&
         Targets(doc, out, error) &&
         uint_field(doc, "trace_id", 0, "a non-negative integer", out.trace_id,
                    error) &&
         uint_field(doc, "deadline_ms", 1, "a positive integer",
                    out.deadline_ms, error);
}

bool parse_measure(const JsonValue& doc, WireRequest& out, std::string& error) {
  if (const JsonValue* s = doc.find("scenario")) {
    if (!scenario_field(*s, out.scenario, error)) return false;
  }
  const JsonValue* pct = doc.find("load_pct");
  if (pct == nullptr) {
    error = "measure needs \"load_pct\"";
    return false;
  }
  return finite_number(*pct, "load_pct", out.load_pct, error);
}

bool parse_sweep(const JsonValue& doc, WireRequest& out, std::string& error) {
  if (const JsonValue* s = doc.find("scenarios")) {
    if (!s->is_array() || s->items().empty()) {
      error = "\"scenarios\" must be a non-empty array of Fig. 4 numbers";
      return false;
    }
    for (const JsonValue& item : s->items()) {
      int number = 0;
      if (!scenario_field(item, number, error)) {
        error = "\"scenarios\" entries must be Fig. 4 numbers in 1..8";
        return false;
      }
      out.scenarios.push_back(number);
    }
  }
  if (const JsonValue* l = doc.find("load_pcts")) {
    if (!l->is_array() || l->items().empty()) {
      error = "\"load_pcts\" must be a non-empty array of numbers";
      return false;
    }
    for (const JsonValue& item : l->items()) {
      double v = 0.0;
      if (!finite_number(item, "load_pcts", v, error)) return false;
      out.load_pcts.push_back(v);
    }
  }
  return true;
}

bool parse_inject(const JsonValue& doc, WireRequest& out, std::string& error) {
  if (const JsonValue* f = doc.find("fault")) {
    if (!f->is_string()) {
      error = "\"fault\" must be a scenario name string";
      return false;
    }
    out.fault = f->as_string();
  }
  if (const JsonValue* d = doc.find("defense")) {
    if (!d->is_string()) {
      error = "\"defense\" must be none|watchdog|supervisor";
      return false;
    }
    out.defense = d->as_string();
  }
  out.load_pct = 60.0;
  return positive_field(doc, "load_pct", out.load_pct, error) &&
         positive_field(doc, "duration_s", out.duration_s, error) &&
         positive_field(doc, "control_period_s", out.control_period_s, error);
}

bool parse_subscribe(const JsonValue& doc, WireRequest& out,
                     std::string& error) {
  // interval_ms is clamped to the server bounds at admission.
  return uint_field(doc, "interval_ms", 1, "a positive integer",
                    out.interval_ms, error) &&
         uint_field(doc, "ticks", 0, "a non-negative integer (0 = unbounded)",
                    out.ticks, error);
}

// --- per-verb field encoders (VerbSpec::encode) ---

void encode_none(obs::JsonWriter&, const WireRequest&) {}

/// An optional array field, omitted when empty; integers go out unsigned.
template <class T>
void write_array(obs::JsonWriter& w, const char* name,
                 const std::vector<T>& values) {
  if (values.empty()) return;
  w.key(name);
  w.begin_array();
  for (const T& v : values) {
    if constexpr (std::is_integral_v<T>) {
      w.value(static_cast<uint64_t>(v));
    } else {
      w.value(v);
    }
  }
  w.end_array();
}

void encode_plan_targets(obs::JsonWriter& w, const WireRequest& request) {
  write_array(w, "quarantined", request.quarantined);
}

void encode_fleet_targets(obs::JsonWriter& w, const WireRequest& request) {
  if (!request.fleet_quarantined.empty()) {
    w.key("quarantined");
    w.begin_array();
    for (const fleet::ShardMachine& q : request.fleet_quarantined) {
      w.begin_object();
      w.kv("shard", static_cast<uint64_t>(q.shard));
      w.kv("machine", static_cast<uint64_t>(q.machine));
      w.end_object();
    }
    w.end_array();
  }
  write_array(w, "down_shards", request.down_shards);
}

/// The encode side of parse_planned, field for field in the same order.
template <void (*Targets)(obs::JsonWriter&, const WireRequest&)>
void encode_planned(obs::JsonWriter& w, const WireRequest& request) {
  w.kv("scenario", static_cast<uint64_t>(request.scenario));
  if (request.load_files_s.has_value()) {
    w.kv("load", *request.load_files_s);
  } else {
    w.kv("load_pct", request.load_pct);
  }
  Targets(w, request);
  if (request.trace_id.has_value()) w.kv("trace_id", *request.trace_id);
  if (request.deadline_ms.has_value()) {
    w.kv("deadline_ms", *request.deadline_ms);
  }
}

void encode_measure(obs::JsonWriter& w, const WireRequest& request) {
  w.kv("scenario", static_cast<uint64_t>(request.scenario));
  w.kv("load_pct", request.load_pct);
}

void encode_sweep(obs::JsonWriter& w, const WireRequest& request) {
  write_array(w, "scenarios", request.scenarios);
  write_array(w, "load_pcts", request.load_pcts);
}

void encode_inject(obs::JsonWriter& w, const WireRequest& request) {
  w.kv("fault", request.fault);
  w.kv("defense", request.defense);
  w.kv("load_pct", request.load_pct);
  w.kv("duration_s", request.duration_s);
  w.kv("control_period_s", request.control_period_s);
}

void encode_subscribe(obs::JsonWriter& w, const WireRequest& request) {
  w.kv("interval_ms", request.interval_ms);
  if (request.ticks > 0) w.kv("ticks", request.ticks);
}

// --- the verb table ---

constexpr std::string_view kPlanFields[] = {
    "scenario", "load_pct", "load", "quarantined", "trace_id", "deadline_ms"};
constexpr std::string_view kFleetplanFields[] = {
    "scenario", "load_pct",    "load",       "quarantined",
    "trace_id", "deadline_ms", "down_shards"};
constexpr std::string_view kMeasureFields[] = {"scenario", "load_pct"};
constexpr std::string_view kSweepFields[] = {"scenarios", "load_pcts"};
constexpr std::string_view kInjectFields[] = {
    "fault", "defense", "load_pct", "duration_s", "control_period_s"};
constexpr std::string_view kSubscribeFields[] = {"interval_ms", "ticks"};

// verb, name, fields, parse, encode,
//   idempotent, plane, backing, latency histogram
constexpr VerbSpec kVerbSpecs[] = {
    {Verb::kPing, "ping", {}, parse_none, encode_none,
     true, Plane::kQueued, Backing::kAny, "service.latency.ping_us"},
    {Verb::kPlan, "plan", kPlanFields, parse_planned<parse_plan_targets>,
     encode_planned<encode_plan_targets>,
     true, Plane::kQueued, Backing::kAny, "service.latency.plan_us"},
    {Verb::kFleetplan, "fleetplan", kFleetplanFields,
     parse_planned<parse_fleet_targets>, encode_planned<encode_fleet_targets>,
     true, Plane::kQueued, Backing::kFleet, "service.latency.fleetplan_us"},
    {Verb::kMeasure, "measure", kMeasureFields, parse_measure, encode_measure,
     true, Plane::kQueued, Backing::kSimulator, "service.latency.measure_us"},
    {Verb::kSweep, "sweep", kSweepFields, parse_sweep, encode_sweep,
     true, Plane::kQueued, Backing::kSimulator, "service.latency.sweep_us"},
    // Runs a campaign: a resend would run it twice.
    {Verb::kInject, "inject", kInjectFields, parse_inject, encode_inject,
     false, Plane::kQueued, Backing::kSimulator, "service.latency.inject_us"},
    // Mutates connection state: a resend would subscribe twice.
    {Verb::kSubscribe, "subscribe", kSubscribeFields, parse_subscribe,
     encode_subscribe, false, Plane::kReader, Backing::kAny, nullptr},
    {Verb::kHealth, "health", {}, parse_none, encode_none,
     true, Plane::kReader, Backing::kAny, nullptr},
};
static_assert(covers_verbs(kVerbSpecs), "one VerbSpec row per Verb, in order");

}  // namespace

const VerbSpec& verb_spec(Verb verb) {
  return kVerbSpecs[static_cast<size_t>(verb)];
}

const VerbSpec* find_verb(std::string_view name) {
  for (const VerbSpec& spec : kVerbSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string verb_names(std::string_view separator) {
  std::string names;
  for (const VerbSpec& spec : kVerbSpecs) {
    if (!names.empty()) names += separator;
    names += spec.name;
  }
  return names;
}

bool parse_request(std::string_view line, WireRequest& out, std::string& error) {
  out = WireRequest{};
  JsonValue doc;
  if (!parse_json(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  // Recover the id first so even a rejected request gets a correlated
  // error response.
  if (!uint_field(doc, "id", 0, "a non-negative integer", out.id, error)) {
    return false;
  }
  const JsonValue* verb = doc.find("verb");
  const VerbSpec* spec =
      verb != nullptr && verb->is_string() ? find_verb(verb->as_string())
                                           : nullptr;
  if (spec == nullptr) {
    error.assign("\"verb\" must be one of ").append(verb_names("|"));
    return false;
  }
  out.verb = spec->verb;
  // The field whitelist: every key must be common or listed in the row,
  // so typos are rejected by name.
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key == "id" || key == "verb" || key == "priority" ||
        std::find(spec->fields.begin(), spec->fields.end(), key) !=
            spec->fields.end()) {
      continue;
    }
    error = util::strf("unknown field \"%s\" for verb %s", key.c_str(),
                       spec->name);
    return false;
  }
  if (const JsonValue* prio = doc.find("priority")) {
    if (!prio->is_string() || !parse_priority(prio->as_string(), out.priority)) {
      error = "\"priority\" must be one of high|normal|low";
      return false;
    }
  }
  return spec->parse(doc, out, error);
}

// --- encoding ---

namespace {

/// Shared response envelope: {"id":..,"verb":..,"ok":..  ... }
void begin_response(obs::JsonWriter& w, uint64_t id, Verb verb, bool ok) {
  w.begin_object();
  w.kv("id", static_cast<uint64_t>(id));
  w.kv("verb", verb_spec(verb).name);
  w.kv("ok", ok);
}

void write_plan_object(obs::JsonWriter& w, const core::Plan& plan) {
  w.begin_object();
  w.kv("scenario", static_cast<uint64_t>(plan.scenario.number));
  w.kv("load", plan.load);
  w.kv("closed_form_pure", plan.closed_form_pure);
  w.kv("t_ac_c", plan.allocation.t_ac);
  w.kv("it_power_w", plan.allocation.it_power_w);
  w.kv("cooling_power_w", plan.allocation.cooling_power_w);
  w.kv("total_power_w", plan.allocation.total_power_w);
  w.kv("machines_on", static_cast<uint64_t>(plan.allocation.count_on()));
  w.key("on");
  w.begin_array();
  for (const bool on : plan.allocation.on) w.value(on);
  w.end_array();
  w.key("loads");
  w.begin_array();
  for (const double load : plan.allocation.loads) w.value(load);
  w.end_array();
  w.end_object();
}

/// `"trace":{"trace_id":N,"spans":[...]}` — appended after "result" on
/// traced responses only, so untraced responses keep their exact bytes.
/// Spans serialize in record order (parents before children by
/// construction); `shard` appears only on spans carrying a shard detail.
void write_trace_object(obs::JsonWriter& w, const obs::SpanContext& spans) {
  w.key("trace");
  w.begin_object();
  w.kv("trace_id", spans.trace_id());
  w.key("spans");
  w.begin_array();
  for (const obs::SpanRecord& r : spans.records()) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("parent", static_cast<double>(r.parent));
    if (r.detail >= 0) w.kv("shard", static_cast<uint64_t>(r.detail));
    w.kv("start_us", r.start_us);
    w.kv("dur_us", r.dur_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_plan_or_null(obs::JsonWriter& w,
                        const std::optional<core::Plan>& plan) {
  if (plan.has_value()) {
    write_plan_object(w, *plan);
  } else {
    w.value_null();
  }
}

/// One ok:true response: the envelope, "result" written by `result`, then
/// the trace block and the deadline echo, each only when present so their
/// absence keeps the historical bytes.
template <class Result>
std::string respond(uint64_t id, Verb verb, Result&& result,
                    const obs::SpanContext* spans = nullptr,
                    std::optional<uint64_t> deadline_ms = std::nullopt) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  begin_response(w, id, verb, true);
  w.key("result");
  result(w);
  if (spans != nullptr) write_trace_object(w, *spans);
  if (deadline_ms.has_value()) w.kv("deadline_ms", *deadline_ms);
  w.end_object();
  return os.str();
}

void write_point_object(obs::JsonWriter& w, const control::EvalPoint& point) {
  w.begin_object();
  w.kv("scenario", static_cast<uint64_t>(point.scenario.number));
  w.kv("load_pct", point.load_pct);
  w.kv("feasible", point.feasible);
  if (point.feasible) {
    w.key("measurement");
    w.begin_object();
    w.kv("it_power_w", point.measurement.it_power_w);
    w.kv("crac_power_w", point.measurement.crac_power_w);
    w.kv("total_power_w", point.measurement.total_power_w);
    w.kv("peak_cpu_temp_c", point.measurement.peak_cpu_temp_c);
    w.kv("t_ac_achieved_c", point.measurement.t_ac_achieved_c);
    w.kv("t_sp_c", point.measurement.t_sp_c);
    w.kv("throughput_files_s", point.measurement.throughput_files_s);
    w.kv("machines_on", static_cast<uint64_t>(point.measurement.machines_on));
    w.kv("temp_violation", point.measurement.temp_violation);
    w.end_object();
    w.key("plan");
    write_plan_object(w, point.plan);
  }
  w.end_object();
}

}  // namespace

std::string encode_error(uint64_t id, Verb verb, std::string_view code,
                         std::string_view message, size_t queue_depth) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  begin_response(w, id, verb, false);
  w.kv("error_code", code);
  w.kv("error", message);
  if (queue_depth != static_cast<size_t>(-1)) {
    w.kv("queue_depth", static_cast<uint64_t>(queue_depth));
  }
  w.end_object();
  return os.str();
}

bool serves(const ServerInfo& info, Verb verb) {
  switch (verb_spec(verb).backing) {
    case Backing::kAny: return true;
    case Backing::kSimulator: return info.sim_backed;
    case Backing::kFleet: return info.fleet_shards > 0;
  }
  return false;
}

std::string encode_ping_response(uint64_t id, const ServerInfo& info) {
  return respond(id, Verb::kPing, [&](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("machines", static_cast<uint64_t>(info.machines));
    w.kv("capacity_files_s", info.capacity_files_s);
    w.kv("queue_capacity", static_cast<uint64_t>(info.queue_capacity));
    w.kv("workers", static_cast<uint64_t>(info.workers));
    w.kv("sim_backed", info.sim_backed);
    if (info.fleet_shards > 0) {
      w.kv("fleet_shards", static_cast<uint64_t>(info.fleet_shards));
    }
    w.key("verbs");
    w.begin_array();
    for (const VerbSpec& spec : kVerbSpecs) {
      if (serves(info, spec.verb)) w.value(spec.name);
    }
    w.end_array();
    w.end_object();
  });
}

std::string encode_plan_response(uint64_t id, const core::PlanResult& result,
                                 const obs::SpanContext* spans,
                                 std::optional<uint64_t> deadline_ms) {
  if (!result.error.empty()) {
    return encode_error(id, Verb::kPlan, kErrInvalidArgument, result.error);
  }
  return respond(
      id, Verb::kPlan,
      [&](obs::JsonWriter& w) {
        w.begin_object();
        // Shard attribution only for fleet-fanned requests, so monolithic
        // plan responses keep their exact historical bytes.
        if (result.shard >= 0) {
          w.kv("shard", static_cast<uint64_t>(result.shard));
        }
        w.kv("feasible", result.feasible());
        w.kv("shed_load", result.shed_load);
        if (result.shed_load > 0.0) {
          w.key("shed_priority");
          w.begin_array();
          for (const size_t index : result.shed_priority) {
            w.value(static_cast<uint64_t>(index));
          }
          w.end_array();
        }
        w.key("plan");
        write_plan_or_null(w, result.plan);
        w.end_object();
      },
      spans, deadline_ms);
}

std::string encode_fleetplan_response(uint64_t id,
                                      const fleet::FleetPlanResult& result,
                                      const obs::SpanContext* spans,
                                      std::optional<uint64_t> deadline_ms) {
  return respond(
      id, Verb::kFleetplan,
      [&](obs::JsonWriter& w) {
        w.begin_object();
        w.kv("feasible", result.feasible());
        w.kv("total_power_w", result.total_power_w);
        w.kv("unassigned_load", result.unassigned_load);
        w.kv("shed_load", result.shed_load);
        // Degradation accounting appears only when shards are down, keeping
        // fully healthy responses byte-identical to their historical form.
        if (result.shards_down() > 0) {
          w.kv("shards_down", static_cast<uint64_t>(result.shards_down()));
          w.kv("redistributed_load", result.redistributed_load);
        }
        w.key("shard_loads");
        w.begin_array();
        for (const double load : result.shard_loads) w.value(load);
        w.end_array();
        w.key("shards");
        w.begin_array();
        for (size_t s = 0; s < result.shard_results.size(); ++s) {
          const core::PlanResult& r = result.shard_results[s];
          w.begin_object();
          w.kv("shard", static_cast<uint64_t>(s));
          const fleet::ShardStatus status = s < result.shard_status.size()
                                                ? result.shard_status[s]
                                                : fleet::ShardStatus::kOk;
          if (status != fleet::ShardStatus::kOk) {
            w.kv("status", fleet::to_string(status));
          }
          if (!r.error.empty()) w.kv("error", r.error);
          w.kv("feasible", r.feasible());
          w.kv("shed_load", r.shed_load);
          w.key("plan");
          write_plan_or_null(w, r.plan);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      },
      spans, deadline_ms);
}

std::string encode_measure_response(uint64_t id,
                                    const control::EvalPoint& point) {
  return respond(id, Verb::kMeasure,
                 [&](obs::JsonWriter& w) { write_point_object(w, point); });
}

std::string encode_sweep_response(uint64_t id,
                                  std::span<const control::EvalPoint> points) {
  return respond(id, Verb::kSweep, [&](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("points_len", static_cast<uint64_t>(points.size()));
    w.key("points");
    w.begin_array();
    for (const control::EvalPoint& point : points) write_point_object(w, point);
    w.end_array();
    w.end_object();
  });
}

std::string encode_inject_response(uint64_t id,
                                   const control::FaultCampaignResult& result) {
  return respond(id, Verb::kInject, [&](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("fault", result.scenario);
    w.kv("defense", control::to_string(result.defense));
    w.kv("demand_files_s", result.demand_files_s);
    w.kv("t_max_c", result.t_max_c);
    w.kv("violation_s", result.violation_s);
    w.kv("peak_cpu_c", result.peak_cpu_c);
    w.kv("shed_files", result.shed_files);
    w.kv("energy_j", result.energy_j);
    w.kv("final_total_power_w", result.final_total_power_w);
    w.kv("final_throughput_files_s", result.final_throughput_files_s);
    w.kv("fault_events", static_cast<uint64_t>(result.fault_events));
    w.kv("quarantines", static_cast<uint64_t>(result.quarantines));
    w.kv("readmissions", static_cast<uint64_t>(result.readmissions));
    w.kv("emergency_overrides",
         static_cast<uint64_t>(result.emergency_overrides));
    w.kv("watchdog_interventions",
         static_cast<uint64_t>(result.watchdog_interventions));
    w.end_object();
  });
}

std::string encode_subscribe_response(uint64_t id, uint64_t interval_ms,
                                      uint64_t ticks) {
  return respond(id, Verb::kSubscribe, [&](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("interval_ms", interval_ms);
    w.kv("ticks", ticks);
    w.end_object();
  });
}

std::string encode_health_response(uint64_t id, const HealthInfo& health) {
  return respond(id, Verb::kHealth, [&](obs::JsonWriter& w) {
    w.begin_object();
    w.kv("queue_depth", static_cast<uint64_t>(health.queue_depth));
    w.kv("queue_capacity", static_cast<uint64_t>(health.queue_capacity));
    w.kv("workers", static_cast<uint64_t>(health.workers));
    w.kv("draining", health.draining);
    if (!health.shard_status.empty()) {
      w.key("shards");
      w.begin_array();
      for (size_t s = 0; s < health.shard_status.size(); ++s) {
        w.begin_object();
        w.kv("shard", static_cast<uint64_t>(s));
        w.kv("status", health.shard_status[s]);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  });
}

std::string encode_telemetry_tick(uint64_t subscription_id, uint64_t tick,
                                  const obs::MetricsDelta& delta,
                                  bool closing) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  // Ticks lead with "verb":"telemetry" while responses lead with "id", so
  // a client multiplexing plans and a subscription on one connection can
  // split the streams on the first key.
  w.kv("verb", "telemetry");
  w.kv("subscription", subscription_id);
  w.kv("tick", tick);
  w.kv("seq", delta.to_sequence);
  if (closing) w.kv("closing", true);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : delta.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : delta.gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, s] : delta.histograms) {
    w.key(name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("p50", s.p50);
    w.kv("p95", s.p95);
    w.kv("p99", s.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

std::string encode_request(const WireRequest& request) {
  const VerbSpec& spec = verb_spec(request.verb);
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("id", static_cast<uint64_t>(request.id));
  w.kv("verb", spec.name);
  w.kv("priority", to_string(request.priority));
  spec.encode(w, request);
  w.end_object();
  return os.str();
}

}  // namespace coolopt::service
