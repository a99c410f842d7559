// The pipeline every caller runs (the CLI and analyzer_test alike), plus
// suppression matching and the clickable file:line diagnostics.

#include <algorithm>
#include <map>

#include "analyzer.h"

namespace miniraid {
namespace analyze {

namespace {

// Marks findings covered by a `// miniraid-lint: allow(...)` comment.
void ApplySuppressions(const Model& model, std::vector<Finding>* findings) {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : model.files) by_path[f.path] = &f;
  for (Finding& finding : *findings) {
    auto it = by_path.find(finding.file);
    if (it == by_path.end()) continue;
    auto allow = it->second->allow.find(finding.line);
    if (allow == it->second->allow.end()) continue;
    if (allow->second.count(finding.rule) || allow->second.count("*") ||
        allow->second.count("all")) {
      finding.suppressed = true;
    }
  }
}

}  // namespace

Analysis Analyze(const std::vector<Source>& sources, const CheckOptions& opts) {
  Indexer indexer;
  for (const Source& source : sources) {
    indexer.AddFile(LexFile(source.path, source.content));
  }
  const Model model = indexer.Build();

  Analysis out;
  for (const SourceFile& file : model.files) {
    CheckFileRules(file, &out.findings);
  }
  std::vector<Finding> checks = RunChecks(model, opts);
  out.findings.insert(out.findings.end(), checks.begin(), checks.end());
  out.effects = BuildEffectMap(model, opts);
  if (!opts.effects_golden.empty()) {
    DiffEffectsAgainstGolden(out.effects, opts.effects_golden, &out.findings);
  }
  out.lock_graph = BuildLockGraph(model, opts, &out.findings);
  out.shared_state = BuildSharedStateReport(model, opts, &out.findings);
  CheckViewEscape(model, opts, &out.findings);
  std::sort(out.findings.begin(), out.findings.end());
  ApplySuppressions(model, &out.findings);
  return out;
}

int PrintFindings(const std::vector<Finding>& findings, std::ostream& os) {
  int count = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
    ++count;
  }
  return count;
}

}  // namespace analyze
}  // namespace miniraid
