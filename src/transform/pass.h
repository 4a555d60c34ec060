// Cetus-style pass architecture (paper §5.3): every framework component is
// an AnalysisPass or a TransformPass; a Driver runs them in series and
// performs consistency checks on the IR between passes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/variable_info.h"
#include "ast/context.h"
#include "partition/memory_plan.h"
#include "support/diagnostics.h"

namespace hsm::transform {

/// Everything a pass may need: the tree, the analysis results, the Stage 4
/// plan, diagnostics, and a scratch area shared between passes.
struct PassContext {
  PassContext(ast::ASTContext& ast_in, analysis::AnalysisResult& analysis_in,
              const partition::MemoryPlan& plan_in, DiagnosticEngine& diags_in)
      : ast(ast_in), analysis(analysis_in), plan(plan_in), diags(diags_in) {}

  ast::ASTContext& ast;
  analysis::AnalysisResult& analysis;
  const partition::MemoryPlan& plan;
  DiagnosticEngine& diags;

  /// Name of the core-id variable inserted in the entry procedure ("myID").
  std::string core_id_name = "myID";
  /// The VarDecl for the core-id variable, once created.
  ast::VarDecl* core_id_decl = nullptr;
  /// The translated entry function (RCCE_APP), once renamed.
  ast::FunctionDecl* entry = nullptr;
  /// Alg. 4's hash table: thread functions that must run on a specific core
  /// (standalone tasks), mapped to that core id.
  std::vector<std::pair<std::string, int>> core_bound_tasks;
};

class Pass {
 public:
  virtual ~Pass() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Returns false if the pass detected an unrecoverable problem.
  virtual bool run(PassContext& ctx) = 0;
};

/// Passes that only inspect the IR.
class AnalysisPass : public Pass {};
/// Passes that reshape the IR.
class TransformPass : public Pass {};

/// Runs passes in sequence with IR consistency checks in between
/// (the paper's Driver class).
class Driver {
 public:
  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }

  /// Runs all passes. Stops (returning false) on pass failure or a failed
  /// consistency check.
  bool runAll(PassContext& ctx);

  /// IR sanity check: every statement/expression link non-null where
  /// required, every function body present exactly once, etc.
  [[nodiscard]] static bool checkConsistency(const ast::TranslationUnit& unit,
                                             DiagnosticEngine& diags);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace hsm::transform
