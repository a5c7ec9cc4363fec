// cia_policy — runtime-policy tooling.
//
//   cia_policy generate --out policy.json [--seed S] [--days N]
//       Build a distribution (optionally aged by N release days), mirror
//       it, and emit the dynamic generator's base policy as JSON.
//
//   cia_policy stats <policy.json>
//       Entry/path/exclude counts and serialized size.
//
//   cia_policy diff <old.json> <new.json>
//       Paths added, removed, and re-hashed between two policies.
//
//   cia_policy dedup <in.json> <out.json>
//       Drop superseded hashes (keep the newest per path).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/log.hpp"
#include "core/policy_generator.hpp"
#include "keylime/policy_store/store.hpp"
#include "pkg/archive.hpp"
#include "pkg/mirror.hpp"

namespace {

using namespace cia;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return bool(out);
}

Result<keylime::RuntimePolicy> load_policy(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) {
    return err(Errc::kNotFound, "cannot read " + path);
  }
  auto doc = json::parse(text);
  if (!doc.ok()) return doc.error();
  return keylime::RuntimePolicy::from_json(doc.value());
}

int cmd_generate(int argc, char** argv) {
  std::string out_path;
  std::uint64_t seed = 42;
  int days = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--days" && i + 1 < argc) {
      days = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  pkg::Archive archive(pkg::ArchiveConfig{}, seed);
  for (int day = 0; day < days; ++day) (void)archive.release_day(day);
  pkg::Mirror mirror(&archive);
  mirror.sync(days * kDay);
  core::DynamicPolicyGenerator generator(&mirror, core::GeneratorConfig{});
  core::PolicyUpdateStats stats;
  const auto policy =
      generator.generate_base(archive.current_kernel_version(), &stats);
  if (!write_file(out_path, policy.to_json().pretty())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s: %zu entries from %zu packages (%.1f virtual min)\n",
              out_path.c_str(), policy.entry_count(), stats.packages_processed,
              stats.seconds / 60.0);
  return 0;
}

int cmd_stats(const std::string& path) {
  auto policy = load_policy(path);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.error().to_string().c_str());
    return 2;
  }
  std::printf("entries:  %zu\npaths:    %zu\nexcludes: %zu\nsize:     %.2f MB\n",
              policy.value().entry_count(), policy.value().path_count(),
              policy.value().excludes().size(),
              static_cast<double>(policy.value().byte_size()) / 1048576.0);
  return 0;
}

int cmd_diff(const std::string& old_path, const std::string& new_path) {
  auto old_policy = load_policy(old_path);
  auto new_policy = load_policy(new_path);
  if (!old_policy.ok() || !new_policy.ok()) {
    std::fprintf(stderr, "cannot load inputs\n");
    return 2;
  }
  // policy_store::diff's entries are the changed paths, one per path.
  const auto delta = keylime::policy_store::diff(old_policy.value(),
                                                 new_policy.value());
  using Op = keylime::policy_store::DeltaEntry::Op;
  std::size_t added = 0, removed = 0, rehashed = 0;
  for (const auto& e : delta.entries) {
    switch (e.op) {
      case Op::kAdd: ++added; break;
      case Op::kRemove: ++removed; break;
      case Op::kReplace: ++rehashed; break;
    }
  }
  std::printf("paths added:    %zu\npaths removed:  %zu\npaths re-hashed: %zu\n",
              added, removed, rehashed);
  return 0;
}

int cmd_dedup(const std::string& in_path, const std::string& out_path) {
  auto policy = load_policy(in_path);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.error().to_string().c_str());
    return 2;
  }
  const std::size_t removed = policy.value().dedup();
  if (!write_file(out_path, policy.value().to_json().pretty())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("removed %zu superseded hashes; wrote %s\n", removed,
              out_path.c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: cia_policy <command> ...\n"
               "  generate --out policy.json [--seed S] [--days N]\n"
               "  stats <policy.json>\n"
               "  diff <old.json> <new.json>\n"
               "  dedup <in.json> <out.json>\n");
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "generate") return cmd_generate(argc, argv);
  if (command == "stats" && argc == 3) return cmd_stats(argv[2]);
  if (command == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
  if (command == "dedup" && argc == 4) return cmd_dedup(argv[2], argv[3]);
  usage();
  return 2;
}
