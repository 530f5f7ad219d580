//===- lint/Rules.cpp -----------------------------------------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//

#include "lint/Rules.h"

#include <algorithm>
#include <array>

using namespace gstm;
using namespace gstm::lint;

const char *gstm::lint::ruleId(Rule R) {
  switch (R) {
  case Rule::NakedAccess:
    return "R1";
  case Rule::Irrevocable:
    return "R2";
  case Rule::NonDeterminism:
    return "R3";
  case Rule::HandleEscape:
    return "R4";
  case Rule::UnsafeCallee:
    return "R5";
  case Rule::UpgradeHazard:
    return "R6";
  case Rule::BadSuppression:
    return "S1";
  case Rule::TornPublish:
    return "O1";
  case Rule::AcquireRelease:
    return "O2";
  case Rule::FenceContract:
    return "O3";
  }
  return "?";
}

const char *gstm::lint::ruleHint(Rule R) {
  switch (R) {
  case Rule::NakedAccess:
    return "route the access through the handle (Tx.load/Tx.store, "
           "Tx.read/Tx.write)";
  case Rule::Irrevocable:
    return "hoist the side effect out of the transaction body; allocate "
           "through TmPool";
  case Rule::NonDeterminism:
    return "draw randomness/time before the transaction and capture the "
           "value";
  case Rule::HandleEscape:
    return "pass the handle down by reference; never store or capture it";
  case Rule::UnsafeCallee:
    return "make the callee transaction-safe, or pass the txn handle so "
           "it is checked as transactional context";
  case Rule::UpgradeHazard:
    return "write the location before reading it back, or run the body "
           "on an engine whose reads already take exclusive locks "
           "(2pl-undo)";
  case Rule::BadSuppression:
    return "write `// stm-lint: allow(<rule>) <why this is safe>`";
  case Rule::TornPublish:
    return "store with memory_order_release, or keep a release fence "
           "between the data writes and this publish";
  case Rule::AcquireRelease:
    return "use load(acquire)/store(release) on this variable, per its "
           "declared pair() contract";
  case Rule::FenceContract:
    return "restore the std::atomic_thread_fence(std::memory_order_"
           "seq_cst) the contract requires before its anchor call";
  }
  return "";
}

bool gstm::lint::ruleFromId(std::string_view Id, Rule &Out) {
  for (Rule R :
       {Rule::NakedAccess, Rule::Irrevocable, Rule::NonDeterminism,
        Rule::HandleEscape, Rule::UnsafeCallee, Rule::UpgradeHazard,
        Rule::BadSuppression, Rule::TornPublish, Rule::AcquireRelease,
        Rule::FenceContract}) {
    if (Id == ruleId(R)) {
      Out = R;
      return true;
    }
  }
  return false;
}

const RuleProfile &
gstm::lint::profileForHandleType(std::string_view HandleType) {
  // Lazy TL2-lineage engines: writes buffer until commit, so a user
  // exception unwinds with no shared state touched, and reads take no
  // visible locks.
  static const RuleProfile Generic{"generic", true, true, false, false};
  static const RuleProfile Tl2{"tl2", true, true, false, false};
  static const RuleProfile LibTm{"libtm", true, true, false, false};
  // In-place engines (src/engine): encounter-time writes + undo log. The
  // executor catches only TxAbortException, so R2 additionally forbids
  // user throws (the undo log would never replay).
  static const RuleProfile OrecEager{"orec-eager", true, true, false, true};
  static const RuleProfile TwoPl{"2pl-undo", true, true, false, true};
  // TLRW's visible reader bytes make read→write upgrades an abort-storm
  // hazard (two readers of the same entry can never both upgrade): R6.
  static const RuleProfile Tlrw{"tlrw", true, true, true, true};
  // Policy statics taking a template-parameter handle (`TxnT &Tx`): the
  // body *is* the engine. Raw atomics and runtime-machinery calls are
  // the point (the ordering pass owns their discipline), but R2/R3/R4
  // still apply — engines must not allocate, block, or stash handles.
  static const RuleProfile EngineInternal{"engine-internal", false, false,
                                          false, false};

  if (HandleType == "Tl2Txn")
    return Tl2;
  if (HandleType == "LibTxn")
    return LibTm;
  if (HandleType == "OrecEagerTxn")
    return OrecEager;
  if (HandleType == "TlrwTxn")
    return Tlrw;
  if (HandleType == "TwoPlTxn")
    return TwoPl;
  if (HandleType == "Txn" || HandleType == "EngineTxn" ||
      HandleType.empty())
    return Generic;
  // Any other accepted handle type came from a template parameter list
  // (Parser.cpp collects `typename TxnT`-style names containing "Txn").
  return EngineInternal;
}

namespace {

bool contains(std::initializer_list<std::string_view> L,
              std::string_view S) {
  return std::find(L.begin(), L.end(), S) != L.end();
}

/// R1: member functions of std::atomic / TVar / TObj that read or write
/// shared state when invoked on anything but the transaction handle.
bool isAtomicAccessMethod(std::string_view N) {
  return contains({"load", "store", "exchange", "fetch_add", "fetch_sub",
                   "fetch_and", "fetch_or", "fetch_xor",
                   "compare_exchange_weak", "compare_exchange_strong",
                   "test_and_set", "loadDirect", "storeDirect", "loadWord",
                   "storeWord", "read", "write"},
                  N);
}

/// R6: handle methods that read a location (and, on visible-reader
/// engines, leave a shared lock behind) vs. methods that write one.
bool isHandleReadMethod(std::string_view N) {
  return contains({"load", "read", "loadWord"}, N);
}
bool isHandleWriteMethod(std::string_view N) {
  return contains({"store", "write", "storeWord"}, N);
}

/// R2: allocation / I/O / process-control calls that cannot be rolled
/// back when the attempt aborts.
bool isIrrevocableCall(std::string_view N) {
  return contains(
      {"malloc",   "calloc",    "realloc",  "free",     "aligned_alloc",
       "posix_memalign",        "strdup",   "printf",   "fprintf",
       "vprintf",  "vfprintf",  "puts",     "putc",     "putchar",
       "fputs",    "fputc",     "fopen",    "fclose",   "fread",
       "fwrite",   "fgets",     "fgetc",    "fflush",   "getline",
       "scanf",    "fscanf",    "perror",   "system",   "exit",
       "_Exit",    "quick_exit", "abort",   "terminate", "sleep",
       "usleep",   "nanosleep", "sleep_for", "sleep_until"},
      N);
}

/// R2: lock types whose construction/locking inside a body would deadlock
/// or serialize against re-execution.
bool isLockType(std::string_view N) {
  return contains({"lock_guard", "unique_lock", "scoped_lock",
                   "shared_lock", "mutex", "shared_mutex",
                   "recursive_mutex", "timed_mutex", "condition_variable"},
                  N);
}

bool isLockMethod(std::string_view N) {
  return contains({"lock", "unlock", "try_lock", "try_lock_for",
                   "try_lock_until", "lock_shared", "unlock_shared"},
                  N);
}

/// R3: non-deterministic sources; attempts re-execute, so these diverge
/// between attempts and between runs (and break TSA replay).
bool isNonDeterministicCall(std::string_view N) {
  return contains({"rand", "srand", "rand_r", "random", "srandom",
                   "drand48", "lrand48", "mrand48", "getrandom",
                   "getentropy", "gettimeofday", "clock_gettime"},
                  N);
}

bool isClockType(std::string_view N) {
  return contains({"steady_clock", "system_clock", "high_resolution_clock",
                   "file_clock", "utc_clock"},
                  N);
}

/// Keywords and call-shaped constructs that are not function calls.
bool isNonCallKeyword(std::string_view N) {
  return contains({"if", "for", "while", "switch", "catch", "return",
                   "sizeof", "alignof", "alignas", "decltype", "noexcept",
                   "static_assert", "assert", "defined", "throw",
                   "co_await", "co_yield", "co_return"},
                  N);
}

/// Namespace qualifiers whose functions are never repo-defined; calls
/// qualified with these are skipped for R5 resolution (the deny lists
/// above still see them by name).
bool isStdQualifier(std::string_view N) {
  return contains({"std", "chrono", "this_thread", "filesystem", "ranges",
                   "numeric", "gtest", "testing", "internal"},
                  N);
}

/// Scans one body as a sequence of statements: tracks handle aliases
/// declared earlier in the body, the locations the handle has read
/// (for R6), and applies the token-level checks for R1–R4 and R6 under
/// the body's engine profile.
class RangeScanner {
public:
  RangeScanner(const std::vector<Token> &T, size_t Begin, size_t End,
               std::string_view Handle, const RuleProfile &Profile,
               const SkipRanges &Skip)
      : T(T), Begin(Begin), End(End), Handle(Handle), Profile(Profile),
        Skip(Skip) {}

  ScanResult run() {
    for (size_t I = Begin; I < End && I < T.size(); ++I) {
      if (skipIfNestedRegion(I))
        continue;
      scanToken(I);
    }
    return std::move(Out);
  }

private:
  bool skipIfNestedRegion(size_t &I) {
    for (const auto &[B, E] : Skip) {
      if (I >= B && I < E && !(B <= Begin && End <= E)) {
        I = E - 1; // loop increment moves past the sub-region
        return true;
      }
    }
    return false;
  }

  const Token &at(size_t I) const {
    static const Token EndTok{Token::Kind::End, {}, 0};
    return I < T.size() ? T[I] : EndTok;
  }

  void report(Rule R, uint32_t Line, std::string Msg) {
    Out.Violations.push_back({R, Line, std::move(Msg)});
  }

  /// The handle itself, or any reference alias bound to it earlier in
  /// the body (`auto &H2 = Tx;`).
  bool isHandle(std::string_view Name) const {
    if (Handle.empty())
      return false;
    if (Name == Handle)
      return true;
    return std::find(Aliases.begin(), Aliases.end(), Name) !=
           Aliases.end();
  }

  /// Dataflow step: `<type> & X = <handle-or-alias> ;` binds X as a new
  /// name for the handle. Everything downstream (R1 sanctioning, R4
  /// escape checks, handle-passing) then treats X like the handle.
  bool maybeRecordAlias(size_t I) {
    if (Handle.empty())
      return false;
    const Token &Prev = I > Begin ? at(I - 1) : Token{};
    if (!Prev.isPunct("&") || !at(I + 1).isPunct("="))
      return false;
    if (!at(I + 2).is(Token::Kind::Identifier) ||
        !isHandle(at(I + 2).Text) || !at(I + 3).isPunct(";"))
      return false;
    Aliases.push_back(T[I].Text);
    return true;
  }

  void scanToken(size_t I) {
    const Token &Tk = T[I];
    if (Tk.is(Token::Kind::Punct)) {
      if (Tk.Text == "&")
        checkAddressOfHandle(I);
      else if (Tk.Text == "[")
        checkLambdaCapture(I);
      return;
    }
    if (!Tk.is(Token::Kind::Identifier))
      return;

    std::string_view N = Tk.Text;
    const Token &Prev = I > Begin ? at(I - 1) : Token{};
    const Token &Next = at(I + 1);

    if (maybeRecordAlias(I))
      return;

    // R2: keyword-form allocation. Placement syntax (`new (addr) T`,
    // recognized by the `(` right after the keyword) constructs into
    // storage the caller already owns — no allocation to leak on abort —
    // so it is exempt; the transaction-log containers (MiniVector) build
    // elements that way on their hot path. The nothrow form rides the
    // same exemption, an accepted blind spot: it is placement syntax
    // lexically and vanishingly rare in transactional code.
    if (N == "new" && !Prev.isIdent("operator") && !Next.isPunct("(")) {
      report(Rule::Irrevocable, Tk.Line,
             "heap allocation ('new') inside transaction body; aborted "
             "attempts leak or double-construct");
      return;
    }
    if (N == "delete" && !Prev.isIdent("operator") && !Prev.isPunct("=")) {
      report(Rule::Irrevocable, Tk.Line,
             "heap deallocation ('delete') inside transaction body; a "
             "concurrent speculative reader may still dereference it");
      return;
    }
    // Strict R2 for in-place undo-log engines: the retry loop catches
    // only TxAbortException, so a user exception unwinds past the undo
    // replay with encounter-time writes still applied (and locks held).
    // The bare rethrow form `throw;` only appears inside catch blocks
    // re-raising what was already in flight; only `throw <expr>` is the
    // hazard introduced by the body.
    if (N == "throw" && Profile.InPlaceUndo && !Next.isPunct(";") &&
        !Prev.isIdent("operator")) {
      report(Rule::Irrevocable, Tk.Line,
             std::string("'throw' inside an in-place-update transaction "
                         "('") +
                 Profile.Name +
                 "'): the retry loop catches only TxAbortException, so "
                 "unwinding leaves undo-logged writes applied");
      return;
    }
    // R2: stream objects (operator<< chains start at the stream name).
    if (contains({"cout", "cerr", "clog", "cin"}, N)) {
      report(Rule::Irrevocable, Tk.Line,
             "console I/O ('" + std::string(N) +
                 "') inside transaction body re-executes on every retry");
      return;
    }
    // R2: lock types used as declarations/constructions.
    if (isLockType(N) && !Next.isPunct("(")) {
      report(Rule::Irrevocable, Tk.Line,
             "blocking synchronization ('" + std::string(N) +
                 "') inside transaction body can deadlock against the "
                 "STM's own commit locks");
      return;
    }
    // R3: type-form non-determinism.
    if (N == "random_device") {
      report(Rule::NonDeterminism, Tk.Line,
             "'std::random_device' inside transaction body: attempts "
             "re-execute with different values (breaks TSA replay)");
      return;
    }

    if (!Next.isPunct("("))
      return;

    // ---- call-shaped tokens from here on ----
    bool Method = Prev.isPunct(".") || Prev.isPunct("->");
    std::string_view Receiver;
    if (Method && I >= Begin + 2 && at(I - 2).is(Token::Kind::Identifier))
      Receiver = at(I - 2).Text;

    if (isAtomicAccessMethod(N) && Method) {
      if (isHandle(Receiver)) {
        checkUpgradeHazard(I, N);
      } else if (Profile.CheckNakedAccess) {
        std::string Recv =
            Receiver.empty() ? std::string("<expr>") : std::string(Receiver);
        report(Rule::NakedAccess, Tk.Line,
               "naked shared access '" + Recv + "." + std::string(N) +
                   "()' bypasses the transaction handle" +
                   (Handle.empty()
                        ? ""
                        : " '" + std::string(Handle) + "'"));
      }
      return; // handle-API calls are sanctioned, not R5 call sites
    }
    if (isLockMethod(N) && Method && !isHandle(Receiver)) {
      report(Rule::Irrevocable, Tk.Line,
             "mutex operation '." + std::string(N) +
                 "()' inside transaction body");
      return;
    }
    if (isIrrevocableCall(N)) {
      report(Rule::Irrevocable, Tk.Line,
             "irrevocable call '" + std::string(N) +
                 "()' inside transaction body");
      return;
    }
    if (isNonDeterministicCall(N)) {
      report(Rule::NonDeterminism, Tk.Line,
             "non-deterministic call '" + std::string(N) +
                 "()' inside transaction body (breaks TSA replay)");
      return;
    }
    if (N == "now" && Prev.isPunct("::") && I >= Begin + 2 &&
        isClockType(at(I - 2).Text)) {
      report(Rule::NonDeterminism, Tk.Line,
             "clock read '" + std::string(at(I - 2).Text) +
                 "::now()' inside transaction body (breaks TSA replay)");
      return;
    }
    if (N == "time" && !Method && !Prev.isPunct("::")) {
      report(Rule::NonDeterminism, Tk.Line,
             "wall-clock read 'time()' inside transaction body (breaks "
             "TSA replay)");
      return;
    }

    recordCallSite(I, N, Method, Receiver);
  }

  /// First argument of the call whose '(' is at \p LParen, normalized to
  /// the concatenation of its token texts (so `Arr [ i ]` and `Arr[i]`
  /// compare equal regardless of spacing).
  std::string firstArgKey(size_t LParen) const {
    std::string Key;
    int Depth = 0;
    for (size_t J = LParen; J < End && J < T.size(); ++J) {
      if (at(J).isPunct("(") || at(J).isPunct("[") || at(J).isPunct("{")) {
        if (++Depth == 1)
          continue;
      } else if (at(J).isPunct(")") || at(J).isPunct("]") ||
                 at(J).isPunct("}")) {
        if (--Depth == 0)
          break;
      } else if (Depth == 1 && at(J).isPunct(",")) {
        break;
      }
      if (Depth >= 1)
        Key += at(J).Text;
    }
    return Key;
  }

  /// R6: on visible-reader engines, a handle write to a location the
  /// body has already read through the handle upgrades the read lock
  /// the read left behind — two transactions doing the same thing can
  /// never both upgrade, so the pattern degenerates into abort storms.
  /// Reads are tracked in statement order; a nested
  /// `Tx.store(X, Tx.load(X) + 1)` is a single expression whose store
  /// token precedes its load and is deliberately not flagged.
  void checkUpgradeHazard(size_t I, std::string_view N) {
    if (isHandleReadMethod(N)) {
      std::string Key = firstArgKey(I + 1);
      if (!Key.empty() &&
          std::none_of(ReadLocs.begin(), ReadLocs.end(),
                       [&](const auto &P) { return P.first == Key; }))
        ReadLocs.emplace_back(std::move(Key), T[I].Line);
      return;
    }
    if (!Profile.UpgradeHazard || !isHandleWriteMethod(N))
      return;
    std::string Key = firstArgKey(I + 1);
    for (const auto &[Loc, Line] : ReadLocs) {
      if (Loc != Key)
        continue;
      report(Rule::UpgradeHazard, T[I].Line,
             "write to '" + Key + "' upgrades the shared read lock " +
                 "taken by the read at line " + std::to_string(Line) +
                 " ('" + Profile.Name +
                 "' takes visible reader locks; concurrent upgraders "
                 "abort-storm)");
      return;
    }
  }

  void recordCallSite(size_t I, std::string_view N, bool Method,
                      std::string_view Receiver) {
    if (isNonCallKeyword(N))
      return;
    const Token &Prev = I > Begin ? at(I - 1) : Token{};
    if (Prev.isPunct("::")) {
      // Skip std-qualified calls; keep repo-namespace qualified ones.
      if (I >= Begin + 2 && isStdQualifier(at(I - 2).Text))
        return;
    }
    if (Method && isHandle(Receiver)) {
      CallSite C{N, T[I].Line, Receiver, true, false, true};
      Out.Calls.push_back(C);
      return;
    }
    CallSite C;
    C.Name = N;
    C.Line = T[I].Line;
    C.Receiver = Receiver;
    C.MethodStyle = Method;
    C.HandlePassed = handleInArgs(I + 1);
    Out.Calls.push_back(C);
  }

  /// True when the transaction handle (or an alias) appears at any depth
  /// inside the call's argument list starting at the '(' token \p LParen.
  bool handleInArgs(size_t LParen) const {
    if (Handle.empty())
      return false;
    int Depth = 0;
    for (size_t J = LParen; J < End && J < T.size(); ++J) {
      if (at(J).isPunct("("))
        ++Depth;
      else if (at(J).isPunct(")")) {
        if (--Depth == 0)
          return false;
      } else if (at(J).is(Token::Kind::Identifier) && isHandle(at(J).Text))
        return true;
    }
    return false;
  }

  /// R4 part 1: taking the handle's (or an alias's) address in
  /// expression position.
  void checkAddressOfHandle(size_t I) {
    if (Handle.empty() || !at(I + 1).is(Token::Kind::Identifier) ||
        !isHandle(at(I + 1).Text))
      return;
    const Token &Prev = I > Begin ? at(I - 1) : Token{};
    if (Prev.isPunct("=") || Prev.isPunct("(") || Prev.isPunct(",") ||
        Prev.isPunct("{") || Prev.isIdent("return"))
      report(Rule::HandleEscape, T[I].Line,
             "address of transaction handle '&" +
                 std::string(at(I + 1).Text) +
                 "' escapes the transaction body");
  }

  /// R4 part 2: the handle (or an alias) named in a nested lambda's
  /// capture list.
  void checkLambdaCapture(size_t I) {
    if (Handle.empty())
      return;
    // Find the matching ']' nearby; require '(' or '{' after it so this
    // is a lambda introducer, not a subscript.
    int Depth = 0;
    size_t Close = SIZE_MAX;
    for (size_t J = I; J < End && J < T.size() && J < I + 64; ++J) {
      if (at(J).isPunct("["))
        ++Depth;
      else if (at(J).isPunct("]") && --Depth == 0) {
        Close = J;
        break;
      }
    }
    if (Close == SIZE_MAX ||
        !(at(Close + 1).isPunct("(") || at(Close + 1).isPunct("{")))
      return;
    for (size_t J = I + 1; J < Close; ++J)
      if (at(J).is(Token::Kind::Identifier) && isHandle(at(J).Text)) {
        report(Rule::HandleEscape, at(J).Line,
               "transaction handle '" + std::string(at(J).Text) +
                   "' captured by a nested lambda; the lambda may outlive "
                   "the transaction body");
        return;
      }
  }

  const std::vector<Token> &T;
  size_t Begin, End;
  std::string_view Handle;
  const RuleProfile &Profile;
  const SkipRanges &Skip;
  /// Reference aliases of the handle, in declaration order.
  std::vector<std::string_view> Aliases;
  /// Locations read through the handle: (normalized first-arg, line).
  std::vector<std::pair<std::string, uint32_t>> ReadLocs;
  ScanResult Out;
};

} // namespace

ScanResult gstm::lint::scanRange(const std::vector<Token> &Tokens,
                                 size_t Begin, size_t End,
                                 std::string_view Handle,
                                 const RuleProfile &Profile,
                                 const SkipRanges &Skip) {
  return RangeScanner(Tokens, Begin, End, Handle, Profile, Skip).run();
}
