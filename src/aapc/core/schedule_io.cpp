#include "aapc/core/schedule_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

#include "aapc/common/error.hpp"

namespace aapc::core {

namespace {

std::size_t decimal_digits(std::uint32_t value) {
  std::size_t digits = 1;
  while (value >= 10) {
    value /= 10;
    ++digits;
  }
  return digits;
}

}  // namespace

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count) {
  // One pass of std::to_chars into a buffer sized up front. The size
  // assumes ranks in [0, machine_count), so it holds every valid
  // schedule; a rank outside that range grows the buffer instead of
  // overrunning it. Output is byte-identical to the stream writer it
  // replaced (pinned by digest in tests/schedule_io_test.cpp).
  constexpr std::size_t kMaxChunk = 2 * 11 + 4;  // "[-2147483648,...],"
  const std::string_view kind =
      schedule.kind == CollectiveKind::kAlltoall
          ? std::string_view()
          : std::string_view(collective_kind_name(schedule.kind));
  const std::size_t rank_chars = decimal_digits(
      machine_count > 1 ? static_cast<std::uint32_t>(machine_count - 1) : 0);
  std::string out(
      64 + kind.size() + 3 * static_cast<std::size_t>(schedule.phase_count()) +
          (2 * rank_chars + 4) *
              static_cast<std::size_t>(schedule.message_count()) +
          kMaxChunk,
      '\0');
  char* cursor = out.data();
  auto reserve = [&](std::size_t chars) {
    const std::size_t used = static_cast<std::size_t>(cursor - out.data());
    if (out.size() - used < chars) {
      out.resize(std::max(2 * out.size(), used + chars));
      cursor = out.data() + used;
    }
  };
  auto put = [&](std::string_view text) {
    std::memcpy(cursor, text.data(), text.size());
    cursor += text.size();
  };
  auto put_int = [&](std::int32_t value) {
    cursor = std::to_chars(cursor, cursor + 11, value).ptr;
  };

  put("{\"machines\":");
  put_int(machine_count);
  // Alltoall is implicit so pre-kind schedule JSON stays byte-identical
  // (determinism goldens, netd loadgen byte-compare).
  if (!kind.empty()) {
    put(",\"kind\":\"");
    put(kind);
    put("\"");
  }
  put(",\"phases\":[");
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    reserve(kMaxChunk);
    if (p > 0) *cursor++ = ',';
    *cursor++ = '[';
    bool first = true;
    for (const ScheduledMessage& sm : schedule.phase(p)) {
      reserve(kMaxChunk);
      if (!first) *cursor++ = ',';
      first = false;
      *cursor++ = '[';
      put_int(sm.message.src);
      *cursor++ = ',';
      put_int(sm.message.dst);
      *cursor++ = ']';
    }
    *cursor++ = ']';
  }
  reserve(kMaxChunk);
  put("]}");
  out.resize(static_cast<std::size_t>(cursor - out.data()));
  return out;
}

namespace {

/// Minimal recursive-descent reader for exactly the schedule grammar
/// (objects with known keys, arrays, integers). Not a general JSON
/// parser by design: unknown keys are rejected so format drift fails
/// loudly.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void expect(char c) {
    skip_space();
    AAPC_REQUIRE(pos_ < text_.size() && text_[pos_] == c,
                 "schedule JSON: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string key() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out.push_back(text_[pos_++]);
    }
    expect('"');
    expect(':');
    return out;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      out.push_back(text_[pos_++]);
    }
    expect('"');
    return out;
  }

  std::int64_t integer() {
    skip_space();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    AAPC_REQUIRE(pos_ < text_.size() &&
                     std::isdigit(static_cast<unsigned char>(text_[pos_])),
                 "schedule JSON: expected integer at offset " << pos_);
    std::int64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_++] - '0');
    }
    return negative ? -value : value;
  }

  void finish() {
    skip_space();
    AAPC_REQUIRE(pos_ == text_.size(),
                 "schedule JSON: trailing content at offset " << pos_);
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Schedule schedule_from_json(std::string_view json,
                            std::int32_t expected_machines) {
  Reader reader(json);
  reader.expect('{');
  std::int64_t machines = -1;
  CollectiveKind kind = CollectiveKind::kAlltoall;
  std::vector<std::vector<Message>> phases;
  bool saw_phases = false;
  do {
    const std::string field = reader.key();
    if (field == "machines") {
      machines = reader.integer();
      AAPC_REQUIRE(machines >= 0, "schedule JSON: negative machine count");
    } else if (field == "kind") {
      kind = parse_collective_kind(reader.string_value());
    } else if (field == "phases") {
      saw_phases = true;
      reader.expect('[');
      if (!reader.consume(']')) {
        do {
          reader.expect('[');
          std::vector<Message> phase;
          if (!reader.consume(']')) {
            do {
              reader.expect('[');
              const std::int64_t src = reader.integer();
              reader.expect(',');
              const std::int64_t dst = reader.integer();
              reader.expect(']');
              phase.push_back(Message{static_cast<Rank>(src),
                                      static_cast<Rank>(dst)});
            } while (reader.consume(','));
            reader.expect(']');
          }
          phases.push_back(std::move(phase));
        } while (reader.consume(','));
        reader.expect(']');
      }
    } else {
      throw InvalidArgument("schedule JSON: unknown field '" + field + "'");
    }
  } while (reader.consume(','));
  reader.expect('}');
  reader.finish();

  AAPC_REQUIRE(machines >= 0, "schedule JSON: missing 'machines'");
  AAPC_REQUIRE(saw_phases, "schedule JSON: missing 'phases'");
  AAPC_REQUIRE(expected_machines < 0 || machines == expected_machines,
               "schedule JSON: machine count " << machines << " != expected "
                                               << expected_machines);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Message& m : phases[p]) {
      AAPC_REQUIRE(m.src >= 0 && m.src < machines && m.dst >= 0 &&
                       m.dst < machines,
                   "schedule JSON: rank out of range in phase " << p);
    }
  }
  Schedule schedule = Schedule::from_phase_lists(phases);
  schedule.kind = kind;
  return schedule;
}

}  // namespace aapc::core
