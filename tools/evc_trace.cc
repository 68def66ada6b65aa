// evc_trace — inspector for evc-trace-v1 span dumps.
//
// Usage:
//   evc_trace TRACE.json [--node=N] [--name=SUBSTR] [--outcome=STR]
//                        [--limit=N] [--tree] [--critical-path]
//
// Default output is a flat table of finished spans (oldest first) with
// durations, after applying the filters. --tree renders the parent/child
// hierarchy instead. --critical-path picks the longest root span and walks
// the chain of latest-ending children under it — the sequence of work that
// determined the end-to-end latency.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using evc::obs::Json;

struct SpanRow {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t node = 0;
  int64_t start = 0;
  int64_t end = 0;
  std::string name;
  std::string outcome;
};

struct Options {
  std::string path;
  bool has_node = false;
  uint32_t node = 0;
  std::string name_substr;
  std::string outcome;
  size_t limit = 0;  // 0 = unlimited
  bool tree = false;
  bool critical_path = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: evc_trace TRACE.json [--node=N] [--name=SUBSTR]\n"
               "                 [--outcome=STR] [--limit=N] [--tree]\n"
               "                 [--critical-path]\n");
}

/// Parses a whole base-10 unsigned number no larger than `max`. strtoull
/// alone would accept leading blanks, a sign, or trailing junk, and read
/// "abc" as 0.
bool ParseUnsigned(const char* text, uint64_t max, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno != 0 ||
      value > max) {
    std::fprintf(stderr, "evc_trace: not a number in range: '%s'\n", text);
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--node=", 0) == 0) {
      uint64_t node = 0;
      if (!ParseUnsigned(arg.c_str() + 7, UINT32_MAX, &node)) return false;
      opt->has_node = true;
      opt->node = static_cast<uint32_t>(node);
    } else if (arg.rfind("--name=", 0) == 0) {
      opt->name_substr = arg.substr(7);
    } else if (arg.rfind("--outcome=", 0) == 0) {
      opt->outcome = arg.substr(10);
    } else if (arg.rfind("--limit=", 0) == 0) {
      uint64_t limit = 0;
      if (!ParseUnsigned(arg.c_str() + 8, SIZE_MAX, &limit)) return false;
      opt->limit = static_cast<size_t>(limit);
    } else if (arg == "--tree") {
      opt->tree = true;
    } else if (arg == "--critical-path") {
      opt->critical_path = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "evc_trace: unknown flag %s\n", arg.c_str());
      return false;
    } else if (opt->path.empty()) {
      opt->path = arg;
    } else {
      std::fprintf(stderr, "evc_trace: more than one input file\n");
      return false;
    }
  }
  return !opt->path.empty();
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool Matches(const SpanRow& s, const Options& opt) {
  if (opt.has_node && s.node != opt.node) return false;
  if (!opt.name_substr.empty() &&
      s.name.find(opt.name_substr) == std::string::npos) {
    return false;
  }
  if (!opt.outcome.empty() && s.outcome != opt.outcome) return false;
  return true;
}

void PrintRow(const SpanRow& s, int depth) {
  std::printf("%*s%-8llu %-8llu %-5u %-11lld %-11lld %-9lld %-10s %s\n",
              depth * 2, "", static_cast<unsigned long long>(s.id),
              static_cast<unsigned long long>(s.parent), s.node,
              static_cast<long long>(s.start), static_cast<long long>(s.end),
              static_cast<long long>(s.end - s.start), s.outcome.c_str(),
              s.name.c_str());
}

void PrintHeader() {
  std::printf("%-8s %-8s %-5s %-11s %-11s %-9s %-10s %s\n", "id", "parent",
              "node", "start_us", "end_us", "dur_us", "outcome", "name");
}

void PrintTree(const SpanRow& s,
               const std::map<uint64_t, std::vector<const SpanRow*>>& children,
               int depth, size_t* printed, size_t limit) {
  if (limit != 0 && *printed >= limit) return;
  PrintRow(s, depth);
  ++*printed;
  const auto it = children.find(s.id);
  if (it == children.end()) return;
  for (const SpanRow* child : it->second) {
    PrintTree(*child, children, depth + 1, printed, limit);
  }
}

void PrintCriticalPath(
    const std::vector<SpanRow>& spans,
    const std::map<uint64_t, std::vector<const SpanRow*>>& children) {
  const SpanRow* root = nullptr;
  for (const SpanRow& s : spans) {
    if (s.parent != 0) continue;
    if (root == nullptr || s.end - s.start > root->end - root->start) {
      root = &s;
    }
  }
  if (root == nullptr) {
    std::printf("no root spans (every span has a live parent)\n");
    return;
  }
  std::printf("critical path under longest root span (dur %lld us):\n",
              static_cast<long long>(root->end - root->start));
  PrintHeader();
  int depth = 0;
  for (const SpanRow* at = root; at != nullptr; ++depth) {
    PrintRow(*at, depth);
    const SpanRow* next = nullptr;
    const auto it = children.find(at->id);
    if (it != children.end()) {
      for (const SpanRow* child : it->second) {
        if (next == nullptr || child->end > next->end) next = child;
      }
    }
    at = next;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  std::string text;
  if (!ReadWholeFile(opt.path, &text)) {
    std::fprintf(stderr, "evc_trace: cannot read %s\n", opt.path.c_str());
    return 1;
  }
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "evc_trace: %s: %s\n", opt.path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const Json& doc = *parsed;
  const Json* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "evc-trace-v1") {
    std::fprintf(stderr, "evc_trace: %s is not an evc-trace-v1 document\n",
                 opt.path.c_str());
    return 1;
  }
  const Json* spans_json = doc.Find("spans");
  if (spans_json == nullptr || !spans_json->is_array()) {
    std::fprintf(stderr, "evc_trace: %s has no spans array\n",
                 opt.path.c_str());
    return 1;
  }

  std::vector<SpanRow> spans;
  spans.reserve(spans_json->AsArray().size());
  for (const Json& j : spans_json->AsArray()) {
    SpanRow s;
    if (const Json* v = j.Find("id")) s.id = static_cast<uint64_t>(v->AsInt());
    if (const Json* v = j.Find("parent")) {
      s.parent = static_cast<uint64_t>(v->AsInt());
    }
    if (const Json* v = j.Find("node")) {
      s.node = static_cast<uint32_t>(v->AsInt());
    }
    if (const Json* v = j.Find("start")) s.start = v->AsInt();
    if (const Json* v = j.Find("end")) s.end = v->AsInt();
    if (const Json* v = j.Find("name")) s.name = v->AsString();
    if (const Json* v = j.Find("outcome")) s.outcome = v->AsString();
    spans.push_back(std::move(s));
  }

  std::map<uint64_t, std::vector<const SpanRow*>> children;
  std::map<uint64_t, bool> present;
  for (const SpanRow& s : spans) present[s.id] = true;
  for (const SpanRow& s : spans) {
    if (s.parent != 0 && present.count(s.parent) > 0) {
      children[s.parent].push_back(&s);
    }
  }

  const Json* dropped = doc.Find("dropped");
  std::printf("%s: %zu finished spans (%lld dropped by ring overflow)\n",
              opt.path.c_str(), spans.size(),
              dropped != nullptr ? static_cast<long long>(dropped->AsInt())
                                 : 0LL);

  if (opt.critical_path) {
    PrintCriticalPath(spans, children);
    return 0;
  }

  PrintHeader();
  size_t printed = 0;
  if (opt.tree) {
    // Roots: parent 0, or parent evicted from the ring.
    for (const SpanRow& s : spans) {
      if (s.parent != 0 && present.count(s.parent) > 0) continue;
      if (!Matches(s, opt)) continue;
      PrintTree(s, children, 0, &printed, opt.limit);
      if (opt.limit != 0 && printed >= opt.limit) break;
    }
  } else {
    for (const SpanRow& s : spans) {
      if (!Matches(s, opt)) continue;
      PrintRow(s, 0);
      if (opt.limit != 0 && ++printed >= opt.limit) break;
    }
  }
  return 0;
}
