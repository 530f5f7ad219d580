//===- lint/Parser.cpp ----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "lint/Parser.h"

#include <algorithm>
#include <unordered_map>

using namespace gstm;
using namespace gstm::lint;

bool gstm::lint::isTxnHandleType(std::string_view TypeName) {
  // "Txn" is the backend-traits alias (src/tmds/TmBackend.h): templated
  // structures take `typename B::Txn &`, which lexes as a plain `Txn`
  // parameter. Treating it as a handle classifies those bodies as
  // transactional contexts, same as their concrete instantiations.
  // The policy-engine family (src/engine) contributes the per-policy
  // aliases plus the generic chassis name: `EngineTxn<P> &` lexes as
  // `EngineTxn` once the template group is stripped.
  return TypeName == "Tl2Txn" || TypeName == "LibTxn" ||
         TypeName == "Txn" || TypeName == "OrecEagerTxn" ||
         TypeName == "TlrwTxn" || TypeName == "TwoPlTxn" ||
         TypeName == "EngineTxn";
}

namespace {

const Token &tok(const std::vector<Token> &T, size_t I) {
  static const Token EndTok{Token::Kind::End, {}, 0};
  return I < T.size() ? T[I] : EndTok;
}

/// Index of the punctuator matching the opener at \p Open ('(' / '{' /
/// '['), or the end of the stream when unbalanced.
size_t matchForward(const std::vector<Token> &T, size_t Open) {
  std::string_view O = T[Open].Text;
  std::string_view C = O == "(" ? ")" : O == "{" ? "}" : "]";
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    if (T[I].isPunct(O))
      ++Depth;
    else if (T[I].isPunct(C) && --Depth == 0)
      return I;
  }
  return T.size();
}

/// Matches a template angle group starting at \p Open ('<'). ">>" closes
/// two levels. Returns the index of the closing token.
size_t matchAngles(const std::vector<Token> &T, size_t Open) {
  int Depth = 0;
  for (size_t I = Open; I < T.size(); ++I) {
    if (T[I].isPunct("<"))
      ++Depth;
    else if (T[I].isPunct(">") && --Depth == 0)
      return I;
    else if (T[I].isPunct(">>") && (Depth -= 2) <= 0)
      return I;
    else if (T[I].isPunct(";") || T[I].isPunct("{"))
      return I; // malformed; bail before swallowing the body
  }
  return T.size();
}

struct ParamScan {
  size_t RParen = 0;
  bool HasTxnParam = false;
  std::string_view Handle;
  std::string_view HandleType;
};

/// Names of the declaration's own template parameters that are accepted
/// as handle types in its parameter list (the `template <typename TxnT>
/// static void store(TxnT &Tx, ...)` policy statics in src/engine).
using TemplateHandleTypes = std::vector<std::string_view>;

/// Scans a parameter list starting at the '(' token \p LParen.
ParamScan scanParams(const std::vector<Token> &T, size_t LParen,
                     const TemplateHandleTypes *TemplateHandles = nullptr) {
  auto IsHandleType = [&](std::string_view Name) {
    if (isTxnHandleType(Name))
      return true;
    return TemplateHandles &&
           std::find(TemplateHandles->begin(), TemplateHandles->end(),
                     Name) != TemplateHandles->end();
  };
  ParamScan PS;
  PS.RParen = matchForward(T, LParen);
  size_t ParamBegin = LParen + 1;
  int Depth = 0;
  for (size_t I = LParen + 1; I <= PS.RParen && I < T.size(); ++I) {
    bool AtEnd = I == PS.RParen;
    if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{"))
      ++Depth;
    else if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}"))
      --Depth;
    if (!(AtEnd || (Depth == 0 && T[I].isPunct(","))))
      continue;
    // One parameter: [ParamBegin, I).
    bool IsTxnType = false, HasRef = false;
    std::string_view LastIdent, TypeName;
    for (size_t J = ParamBegin; J < I; ++J) {
      if (T[J].is(Token::Kind::Identifier)) {
        LastIdent = T[J].Text;
        if (IsHandleType(T[J].Text)) {
          IsTxnType = true;
          TypeName = T[J].Text;
        }
      } else if (T[J].isPunct("&") || T[J].isPunct("*")) {
        HasRef = true;
      }
    }
    if (IsTxnType && HasRef && !LastIdent.empty() &&
        LastIdent != TypeName && !PS.HasTxnParam) {
      PS.HasTxnParam = true;
      PS.Handle = LastIdent;
      PS.HandleType = TypeName;
    }
    ParamBegin = I + 1;
  }
  return PS;
}

class StructuralParser {
public:
  explicit StructuralParser(const TokenStream &TS) : T(TS.Tokens) {}

  ParsedFile run() {
    for (size_t I = 0; I < T.size(); ++I)
      step(I);
    // Close any ranges left open by unbalanced input.
    for (const Scope &S : Stack) {
      if (S.Kind == Scope::Function)
        Out.Functions[S.Index].BodyEnd = T.size();
      else if (S.Kind == Scope::Lambda)
        Out.TxnLambdas[S.Index].BodyEnd = T.size();
    }
    return std::move(Out);
  }

private:
  struct Scope {
    enum K { Namespace, Class, Function, Lambda, Block } Kind;
    std::string Name;  // Namespace/Class
    size_t Index = 0;  // Function/Lambda: index into Out vectors
  };

  bool atDeclScope() const {
    return Stack.empty() || Stack.back().Kind == Scope::Namespace ||
           Stack.back().Kind == Scope::Class;
  }

  size_t enclosingFunction() const {
    for (size_t I = Stack.size(); I > 0; --I)
      if (Stack[I - 1].Kind == Scope::Function)
        return Stack[I - 1].Index;
    return SIZE_MAX;
  }

  void step(size_t &I) {
    const Token &Tk = T[I];
    if (Tk.isPunct("}")) {
      closeBrace(I);
      return;
    }
    if (atDeclScope()) {
      if (Tk.isPunct(";")) {
        StmtStart = I + 1;
        return;
      }
      if (Tk.is(Token::Kind::Identifier) &&
          (Tk.Text == "public" || Tk.Text == "private" ||
           Tk.Text == "protected") &&
          tok(T, I + 1).isPunct(":")) {
        ++I;
        StmtStart = I + 1;
        return;
      }
      if (Tk.isPunct("{"))
        openDeclBrace(I); // may advance I past member-init braces
      return;
    }
    // Inside a function / lambda / block body.
    if (Tk.isPunct("{")) {
      auto It = PendingLambda.find(I);
      if (It != PendingLambda.end())
        Stack.push_back({Scope::Lambda, {}, It->second});
      else
        Stack.push_back({Scope::Block, {}, 0});
      return;
    }
    if (Tk.isPunct("["))
      maybeTxnLambda(I);
  }

  void closeBrace(size_t I) {
    if (Stack.empty())
      return;
    Scope S = Stack.back();
    Stack.pop_back();
    if (S.Kind == Scope::Function)
      Out.Functions[S.Index].BodyEnd = I;
    else if (S.Kind == Scope::Lambda)
      Out.TxnLambdas[S.Index].BodyEnd = I;
    if (atDeclScope())
      StmtStart = I + 1;
  }

  /// Collects the declaration's own template-parameter names that should
  /// be accepted as handle types: `typename`/`class` introducers (plain,
  /// defaulted, or template-template) whose name contains "Txn". The
  /// src/engine policy statics all spell their handle parameter
  /// `template <typename TxnT> static ... f(TxnT &Tx, ...)`.
  void collectTemplateHandles(size_t Open, size_t Close,
                              TemplateHandleTypes &Out) const {
    for (size_t J = Open + 1; J < Close && J < T.size(); ++J) {
      if (!(tok(T, J).isIdent("typename") || tok(T, J).isIdent("class")))
        continue;
      const Token &Name = tok(T, J + 1);
      if (Name.is(Token::Kind::Identifier) &&
          Name.Text.find("Txn") != std::string_view::npos)
        Out.push_back(Name.Text);
    }
  }

  /// Skips a leading requires-clause (`requires C1<T> && (C2<T> || ...)`)
  /// between the template group and the declaration head, so constrained
  /// members do not degrade into opaque blocks. Requires-expressions
  /// (`requires requires { ... }`) are out of scope for the structural
  /// pass; the loop bails before swallowing a brace.
  size_t skipRequiresClause(size_t I) const {
    for (;;) {
      bool Consumed = false;
      if (tok(T, I).isPunct("(")) {
        I = matchForward(T, I) + 1;
        Consumed = true;
      } else {
        while (tok(T, I).is(Token::Kind::Identifier) ||
               tok(T, I).isPunct("::") || tok(T, I).isPunct("!")) {
          if (tok(T, I).isIdent("requires"))
            return I; // nested requires-expression: stop before it
          ++I;
          Consumed = true;
        }
        if (Consumed && tok(T, I).isPunct("<"))
          I = matchAngles(T, I) + 1;
      }
      if (!Consumed)
        return I;
      if (tok(T, I).isPunct("&&") || tok(T, I).isPunct("||")) {
        ++I;
        continue;
      }
      return I;
    }
  }

  /// Classifies a '{' seen at namespace/class scope using the declaration
  /// head tokens [StmtStart, BraceIdx).
  void openDeclBrace(size_t &BraceIdx) {
    size_t Head = StmtStart;
    TemplateHandleTypes TemplateHandles;
    while (tok(T, Head).isIdent("template") &&
           tok(T, Head + 1).isPunct("<")) {
      size_t Close = matchAngles(T, Head + 1);
      collectTemplateHandles(Head + 1, Close, TemplateHandles);
      Head = Close + 1;
    }
    if (tok(T, Head).isIdent("requires"))
      Head = skipRequiresClause(Head + 1);

    // enum first: "enum class" must not be classified as a class.
    for (size_t J = Head; J < BraceIdx; ++J) {
      if (tok(T, J).isIdent("enum")) {
        Stack.push_back({Scope::Block, {}, 0});
        return;
      }
      if (tok(T, J).isIdent("namespace")) {
        std::string Name;
        if (tok(T, J + 1).is(Token::Kind::Identifier))
          Name = std::string(tok(T, J + 1).Text);
        Stack.push_back({Scope::Namespace, Name, 0});
        StmtStart = BraceIdx + 1;
        return;
      }
      if (tok(T, J).isIdent("class") || tok(T, J).isIdent("struct") ||
          tok(T, J).isIdent("union")) {
        std::string Name;
        if (tok(T, J + 1).is(Token::Kind::Identifier))
          Name = std::string(tok(T, J + 1).Text);
        Stack.push_back({Scope::Class, Name, 0});
        StmtStart = BraceIdx + 1;
        return;
      }
      if (tok(T, J).isPunct("(")) {
        openFunctionOrBlock(J, BraceIdx, TemplateHandles);
        return;
      }
    }
    Stack.push_back({Scope::Block, {}, 0});
  }

  /// Declaration head contains a '(' at \p FirstLParen: either a function
  /// definition whose body starts at \p BraceIdx, a constructor whose
  /// member-init braces precede the body, or something we treat as an
  /// opaque block.
  void openFunctionOrBlock(size_t FirstLParen, size_t &BraceIdx,
                           const TemplateHandleTypes &TemplateHandles) {
    size_t LParen = FirstLParen;
    // operator(): the parameter list is the second '(' group.
    if (LParen >= 1 && tok(T, LParen - 1).isIdent("operator") &&
        tok(T, LParen + 1).isPunct(")") && tok(T, LParen + 2).isPunct("("))
      LParen = LParen + 2;

    // Member-initializer braces: `Ctor() : A{1}, B{2} {` — a '{' directly
    // preceded by an identifier while a top-level ':' follows the
    // parameter list is an init brace, not the body. Skip it and let the
    // main loop find the real body brace.
    size_t RParen = matchForward(T, LParen);
    if (tok(T, BraceIdx - 1).is(Token::Kind::Identifier) &&
        hasTopLevelColon(RParen + 1, BraceIdx)) {
      size_t Close = matchForward(T, BraceIdx);
      BraceIdx = Close; // caller's loop continues after the init brace
      return;
    }

    // Function name: identifier chain directly before the '(' (possibly
    // qualified, possibly a destructor).
    size_t NameIdx = LParen - 1;
    bool IsOperator = false;
    if (tok(T, NameIdx).isIdent("operator")) {
      IsOperator = true;
    } else if (tok(T, NameIdx).is(Token::Kind::Punct) &&
               NameIdx >= 1 && tok(T, NameIdx - 1).isIdent("operator")) {
      IsOperator = true;
      NameIdx = NameIdx - 1;
    }
    if (!IsOperator && !tok(T, NameIdx).is(Token::Kind::Identifier)) {
      Stack.push_back({Scope::Block, {}, 0});
      return;
    }

    FunctionDef FD;
    FD.Line = tok(T, NameIdx).Line;
    if (IsOperator) {
      FD.Name = tok(T, NameIdx).Text; // "operator"
      FD.Qualified = "operator";
    } else {
      FD.Name = tok(T, NameIdx).Text;
      std::string Qual(FD.Name);
      size_t K = NameIdx;
      if (K >= 1 && tok(T, K - 1).isPunct("~"))
        Qual = "~" + Qual;
      while (K >= 2 && tok(T, K - 1).isPunct("::") &&
             tok(T, K - 2).is(Token::Kind::Identifier)) {
        Qual = std::string(tok(T, K - 2).Text) + "::" + Qual;
        FD.IsMethod = true;
        K -= 2;
      }
      // Prefix enclosing class scopes (inline member definitions).
      for (const Scope &S : Stack)
        if (S.Kind == Scope::Class) {
          Qual = S.Name + "::" + Qual;
          FD.IsMethod = true;
        }
      FD.Qualified = Qual;
    }

    ParamScan PS = scanParams(T, LParen, &TemplateHandles);
    FD.HasTxnParam = PS.HasTxnParam;
    FD.Handle = PS.Handle;
    FD.HandleType = PS.HandleType;
    FD.BodyBegin = BraceIdx + 1;
    FD.BodyEnd = BraceIdx + 1; // fixed at closing brace
    Out.Functions.push_back(FD);
    Stack.push_back({Scope::Function, {}, Out.Functions.size() - 1});
  }

  bool hasTopLevelColon(size_t Begin, size_t End) const {
    int Depth = 0;
    for (size_t J = Begin; J < End && J < T.size(); ++J) {
      if (T[J].isPunct("(") || T[J].isPunct("[") || T[J].isPunct("{") ||
          T[J].isPunct("<"))
        ++Depth;
      else if (T[J].isPunct(")") || T[J].isPunct("]") ||
               T[J].isPunct("}") || T[J].isPunct(">"))
        --Depth;
      else if (Depth == 0 && T[J].isPunct(":"))
        return true;
    }
    return false;
  }

  /// '[' inside a body: if it introduces a lambda whose parameters
  /// declare a transactional handle, register the lambda body.
  void maybeTxnLambda(size_t LBracket) {
    size_t RBracket = matchForward(T, LBracket);
    if (RBracket >= T.size() || !tok(T, RBracket + 1).isPunct("("))
      return;
    ParamScan PS = scanParams(T, RBracket + 1);
    if (!PS.HasTxnParam)
      return;
    // Find the body '{' after the parameter list, skipping specifiers
    // (mutable, noexcept, trailing return). Bail on anything that shows
    // this is not a lambda after all.
    size_t B = PS.RParen + 1;
    for (unsigned Guard = 0; Guard < 32 && B < T.size(); ++Guard, ++B) {
      if (tok(T, B).isPunct("{"))
        break;
      if (tok(T, B).isPunct(";") || tok(T, B).isPunct(")") ||
          tok(T, B).isPunct("}"))
        return;
    }
    if (B >= T.size() || !tok(T, B).isPunct("{"))
      return;

    TxnLambda L;
    L.Handle = PS.Handle;
    L.HandleType = PS.HandleType;
    L.Line = T[LBracket].Line;
    L.BodyBegin = B + 1;
    L.BodyEnd = B + 1; // fixed at closing brace
    L.EnclosingFunction = enclosingFunction();
    Out.TxnLambdas.push_back(L);
    PendingLambda[B] = Out.TxnLambdas.size() - 1;
  }

  const std::vector<Token> &T;
  std::vector<Scope> Stack;
  size_t StmtStart = 0;
  std::unordered_map<size_t, size_t> PendingLambda;
  ParsedFile Out;
};

} // namespace

ParsedFile gstm::lint::parse(const TokenStream &TS) {
  return StructuralParser(TS).run();
}
