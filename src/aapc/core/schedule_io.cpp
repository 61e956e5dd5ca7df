#include "aapc/core/schedule_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

#include "aapc/common/error.hpp"

namespace aapc::core {

namespace {

/// One rank's pre-rendered JSON text ("[12," for a source, "34]" for a
/// destination), copied into the output as one fixed 16-byte block of
/// which the first `length` bytes count.
struct RankText {
  char text[15];
  std::uint8_t length;
};
static_assert(sizeof(RankText) == 16);

RankText render_rank(char open, Rank value, char close) {
  RankText slot{};
  char* p = slot.text;
  if (open != '\0') *p++ = open;
  p = std::to_chars(p, slot.text + 13, value).ptr;  // at most 11 chars
  if (close != '\0') *p++ = close;
  slot.length = static_cast<std::uint8_t>(p - slot.text);
  return slot;
}

// The writers below take and return the output cursor, so its address
// never escapes and it stays in a register across the byte stores.
char* put(char* at, std::string_view text) {
  std::memcpy(at, text.data(), text.size());
  return at + text.size();
}

char* put(char* at, const RankText& text) {
  std::memcpy(at, &text, sizeof(text));
  return at + text.length;
}

}  // namespace

void append_schedule_json(std::string& out, const Schedule& schedule,
                          std::int32_t machine_count,
                          const std::vector<Rank>* from_canonical) {
  // One pass into `out`. Every rank a message can name is rendered once
  // per call into a digit table (caller ranks when relabeling), so a
  // message costs two fixed-size copies. Space is reserved per phase
  // for table ranks, which holds every valid schedule without growing;
  // an identity rank outside the table is rendered on the spot and
  // reserves for itself, so it grows the buffer instead of overrunning
  // it. Output is byte-identical to the stream writer this replaced
  // (pinned by digest in tests/schedule_io_test.cpp).
  //
  // ",[-2147483648,-2147483648]", plus a 16-byte block's overhang.
  constexpr std::size_t kMaxChunk = 48;
  const std::string_view kind =
      schedule.kind == CollectiveKind::kAlltoall
          ? std::string_view()
          : std::string_view(collective_kind_name(schedule.kind));
  const std::size_t ranks =
      from_canonical != nullptr
          ? from_canonical->size()
          : static_cast<std::size_t>(std::max(machine_count, 0));
  std::vector<RankText> src_text(ranks);
  std::vector<RankText> dst_text(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    const Rank label = from_canonical != nullptr ? (*from_canonical)[r]
                                                 : static_cast<Rank>(r);
    src_text[r] = render_rank('[', label, ',');
    dst_text[r] = render_rank('\0', label, ']');
  }
  // ",[" + digits + "," + digits + "]" for table ranks.
  std::size_t rank_chars = 1;
  for (const RankText& text : dst_text) {
    rank_chars = std::max<std::size_t>(rank_chars, text.length - 1u);
  }
  const std::size_t message_chars = 2 * rank_chars + 4;

  const std::size_t begin = out.size();
  out.resize(begin + 64 + kind.size() +
             3 * static_cast<std::size_t>(schedule.phase_count()) +
             message_chars *
                 static_cast<std::size_t>(schedule.message_count()) +
             kMaxChunk);
  // Grows `out` so `chars` more bytes fit behind `at`; returns `at`'s
  // place in the grown buffer.
  auto reserve = [&out](char* at, std::size_t chars) {
    const std::size_t used = static_cast<std::size_t>(at - out.data());
    if (out.size() - used < chars) {
      out.resize(std::max(2 * out.size(), used + chars));
    }
    return out.data() + used;
  };
  // Negative ranks wrap to huge indices and miss the table too.
  auto in_table = [ranks](Rank rank) {
    return static_cast<std::uint32_t>(rank) < ranks;
  };

  char* cursor = put(out.data() + begin, "{\"machines\":");
  cursor = std::to_chars(cursor, cursor + 11, machine_count).ptr;
  // Alltoall is implicit so pre-kind schedule JSON stays byte-identical
  // (determinism goldens, netd loadgen byte-compare).
  if (!kind.empty()) {
    cursor = put(put(put(cursor, ",\"kind\":\""), kind), "\"");
  }
  cursor = put(cursor, ",\"phases\":[");
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    const PhaseSpan phase = schedule.phase(p);
    cursor = reserve(cursor, phase.size() * message_chars + kMaxChunk);
    if (p > 0) *cursor++ = ',';
    *cursor++ = '[';
    for (std::size_t i = 0; i < phase.size(); ++i) {
      if (i > 0) *cursor++ = ',';
      const Message& m = phase[i].message;
      if (in_table(m.src) && in_table(m.dst)) {
        cursor = put(cursor, src_text[static_cast<std::size_t>(m.src)]);
        cursor = put(cursor, dst_text[static_cast<std::size_t>(m.dst)]);
        continue;
      }
      AAPC_REQUIRE(from_canonical == nullptr,
                   "schedule rank " << (in_table(m.src) ? m.dst : m.src)
                                    << " not covered by the relabeling "
                                    << "permutation (size " << ranks << ")");
      // Room for this message at its widest and the rest of the phase.
      cursor = reserve(cursor, (phase.size() - i) * message_chars +
                                   2 * kMaxChunk);
      cursor = put(cursor, in_table(m.src)
                               ? src_text[static_cast<std::size_t>(m.src)]
                               : render_rank('[', m.src, ','));
      cursor = put(cursor, in_table(m.dst)
                               ? dst_text[static_cast<std::size_t>(m.dst)]
                               : render_rank('\0', m.dst, ']'));
    }
    *cursor++ = ']';
  }
  cursor = put(reserve(cursor, kMaxChunk), "]}");
  out.resize(static_cast<std::size_t>(cursor - out.data()));
}

std::string schedule_to_json(const Schedule& schedule,
                             std::int32_t machine_count) {
  std::string out;
  append_schedule_json(out, schedule, machine_count);
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
