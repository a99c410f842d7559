// miniraid-analyze CLI.
//
//   miniraid-analyze [--effects-golden <path>] [--effects <path>] <paths...>
//
//   --effects-golden <path>  diff the protocol-effect map against a golden;
//                            drift is reported under the "protocol-effect"
//                            rule
//   --effects <path>         write the computed protocol-effect map (how the
//                            golden is regenerated)
//
// Paths may be files or directories (directories are scanned recursively for
// .h/.cc). Exit status: 0 clean, 1 unsuppressed findings, 2 usage/IO error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.h"

namespace miniraid {
namespace analyze {
namespace {

namespace fs = std::filesystem;

void CollectSources(const std::string& path, std::vector<std::string>* out) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (fs::recursive_directory_iterator it(path, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") out->push_back(it->path().string());
    }
    return;
  }
  out->push_back(path);
}

bool ReadFile(const std::string& path, std::string* content) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *content = buf.str();
  return true;
}

int Run(int argc, char** argv) {
  std::string effects_path, effects_golden_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--effects" && i + 1 < argc) {
      effects_path = argv[++i];
    } else if (arg == "--effects-golden" && i + 1 < argc) {
      effects_golden_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: miniraid-analyze [--effects-golden golden.txt] "
                   "[--effects out.txt] <paths...>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "miniraid-analyze: unknown option '" << arg << "'\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "miniraid-analyze: no input paths\n";
    return 2;
  }
  std::vector<std::string> files;
  for (const std::string& p : paths) CollectSources(p, &files);
  if (files.empty()) {
    std::cerr << "miniraid-analyze: no .h/.cc sources under given paths\n";
    return 2;
  }

  std::vector<Source> sources;
  for (const std::string& f : files) {
    Source source{f, ""};
    if (!ReadFile(f, &source.content)) {
      std::cerr << "miniraid-analyze: cannot read " << f << "\n";
      return 2;
    }
    sources.push_back(std::move(source));
  }
  CheckOptions opts = CheckOptions::Defaults();
  if (!effects_golden_path.empty() &&
      !ReadFile(effects_golden_path, &opts.effects_golden)) {
    std::cerr << "miniraid-analyze: cannot read effect golden "
              << effects_golden_path << "\n";
    return 2;
  }
  const Analysis analysis = Analyze(sources, opts);

  if (!effects_path.empty()) {
    std::ofstream out(effects_path);
    if (!out) {
      std::cerr << "miniraid-analyze: cannot write effect map "
                << effects_path << "\n";
      return 2;
    }
    out << FormatEffectMap(analysis.effects);
  }
  int unsuppressed = PrintFindings(analysis.findings, std::cerr);
  if (unsuppressed > 0) {
    std::cerr << unsuppressed << " finding(s)\n";
    return 1;
  }
  std::cout << "miniraid-analyze: " << files.size() << " file(s), "
            << analysis.findings.size()
            << " finding(s), all suppressed or none\n";
  return 0;
}

}  // namespace
}  // namespace analyze
}  // namespace miniraid

int main(int argc, char** argv) {
  return miniraid::analyze::Run(argc, argv);
}
