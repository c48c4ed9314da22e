//===- parser/Frontend.cpp - One-call parsing entry points ----------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "parser/Frontend.h"

#include "parser/Lexer.h"
#include "parser/Parser.h"

using namespace petal;

bool petal::loadProgramText(std::string_view Source, Program &P,
                            DiagnosticEngine &Diags) {
  SynFile File;
  return parseSourceFile(Source, File, Diags) &&
         resolveParsedFile(File, P, Diags);
}

bool petal::parseSourceFile(std::string_view Source, SynFile &File,
                            DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  Parser Parse(Lex.lexAll(), Diags);
  return Parse.parseFile(File);
}

bool petal::resolveParsedFile(const SynFile &File, Program &P,
                              DiagnosticEngine &Diags) {
  Resolver R(P, Diags);
  return R.resolveFile(File);
}

bool petal::resolveParsedFileReusingDecls(const SynFile &File, Program &P,
                                          DiagnosticEngine &Diags,
                                          const PriorCode *Prior) {
  Resolver R(P, Diags);
  return R.resolveFileReusingDecls(File, Prior);
}

const PartialExpr *petal::parseQueryText(std::string_view Query, Program &P,
                                         Arena &Nodes, const QueryScope &Scope,
                                         DiagnosticEngine &Diags) {
  Lexer Lex(Query, Diags);
  Parser Parse(Lex.lexAll(), Diags);
  SynExprPtr Syn = Parse.parseQuery();
  if (!Syn)
    return nullptr;
  Resolver R(P, Nodes, Diags);
  return R.resolveQuery(Syn.get(), Scope);
}

const CodeClass *petal::findCodeClass(const Program &P,
                                      const std::string &TypeName) {
  const TypeSystem &TS = P.typeSystem();
  for (const auto &C : P.classes()) {
    if (TS.type(C->type()).Name == TypeName ||
        TS.qualifiedName(C->type()) == TypeName)
      return C.get();
  }
  return nullptr;
}

const CodeMethod *petal::findCodeMethod(const Program &P,
                                        const CodeClass &Class,
                                        const std::string &MethodName) {
  const TypeSystem &TS = P.typeSystem();
  for (const auto &M : Class.methods())
    if (TS.method(M->decl()).Name == MethodName)
      return M.get();
  return nullptr;
}
