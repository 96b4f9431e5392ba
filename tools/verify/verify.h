// rropt_verify: abstract interpretation over compiled run lists.
//
// The dataplane's end-to-end correctness story is *pinned*: whole
// campaigns through the compiled element pipeline (sim/pipeline.h) must
// reproduce committed dataset hashes and counters across fault plans and
// thread counts (tests/pipeline_differential_test.cpp). That check only
// covers run-list entries the test inputs happen to exercise.
// This verifier closes the gap the way a compiler-IR validator does: it
// symbolically executes every PackedRunList over an abstract packet-header
// domain and proves per-entry invariants for *all* 64 personality x
// packet-class entries of a RunTable at once — including entries no golden
// dataset reaches.
//
// Abstract domain (one run list = one hop's element sequence):
//
//   * TTL interval [lo, hi] plus a decrement counter — TTL is strictly
//     monotone and decremented at most once per hop;
//   * RR pointer/length bounds — the pointer only advances, each advance
//     is guarded by a fullness/bounds check, and nothing advances past the
//     exhausted mark (pointer == length + 1);
//   * checksum-delta accumulator — every header mutation group is covered
//     by exactly one RFC 1624 commit; the fused TtlStampTrusted opcode
//     commits a single combined delta for both of its mutations, and no
//     uncommitted delta survives the run;
//   * option-presence lattice {absent, present, unknown} — option-touching
//     opcodes may only appear in the has_options bank;
//   * an option-content taint bit — fault opcodes may rewrite option
//     content mid-walk, which revokes the structural proof that licenses
//     the trusted (revalidation-skipping) stamp opcodes.
//
// Per-entry invariants proved on top of the abstract execution:
//
//   * kEnd is reachable in <= 8 nibbles and nothing follows it (dead
//     opcodes past the terminator are a mis-compile);
//   * gate opcodes (loss, storm, CoPP, filters) are verdict-pure — they
//     never write the header;
//   * opcode order matches the load-bearing compile order (gates before
//     TTL, stamping last);
//   * fused opcodes are byte-equivalent to their unfused expansions under
//     the abstract semantics;
//   * the entry's opcode set matches an independently re-derived
//     personality spec (double-entry bookkeeping against compile_run_table
//     rot: a new element + peephole combination that silently drops a CoPP
//     gate or double-decrements TTL fails here even if no dataset notices).
//
// Wired three ways: a freeze-time debug assert in sim/pipeline.cpp (the
// table the sim will actually run), the rropt_verify CLI (per-entry
// proof/violation report, uploaded as a CI artifact), and the tier-1
// RroptVerify.RunTableSound ctest which also feeds seeded random element
// chains through compile -> verify. See DESIGN.md §14 for the domain,
// the per-opcode transfer functions and the soundness caveats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/pipeline.h"

namespace rr::verify {

/// Option-presence lattice: what the abstract packet knows about its IP
/// options. A run list is compiled per packet class, so the class pins the
/// lattice at entry; kUnknown exists for verifying free-standing chains.
enum class OptionState : std::uint8_t { kAbsent = 0, kPresent = 1,
                                        kUnknown = 2 };

/// Closed interval over the 8-bit TTL.
struct TtlInterval {
  int lo = 0;
  int hi = 255;
};

/// The abstract packet-header state threaded through the per-opcode
/// transfer functions. One instance describes the cumulative effect of a
/// (prefix of a) run list on any concrete packet admitted at entry.
struct AbstractHeader {
  TtlInterval ttl{0, 255};
  /// TTL decrements applied by this run (invariant: <= 1).
  int ttl_decrements = 0;
  /// RR pointer slot advances applied by this run (invariant: <= 1, each
  /// guarded by a fullness check).
  int rr_advances = 0;
  /// Header mutation groups produced so far (TTL write = 1 group, RR
  /// stamp = 1 group) that are not yet covered by a checksum commit.
  int uncommitted_groups = 0;
  /// RFC 1624 checksum read-modify-writes performed so far.
  int checksum_commits = 0;
  /// Option presence at this point of the run.
  OptionState options = OptionState::kUnknown;
  /// A fault opcode may have rewritten option content since entry: the
  /// structural proof licensing trusted (revalidation-skipping) stamps is
  /// void from here on.
  bool option_content_tainted = false;
};

/// Static facts about one opcode — the verifier's transfer-function table.
/// Exposed so tests can assert the model itself (e.g. every gate opcode is
/// verdict-pure by construction).
struct OpModel {
  const char* name = "?";
  /// Compile-order phase rank; ranks must strictly increase along a list
  /// (the element order is load-bearing for the pinned campaign hashes).
  int phase = 0;
  /// Verdict-pure gate: decides continue/drop/expire, never writes the
  /// header.
  bool gate = false;
  /// Decrements TTL (exactly once, guarded against expired/malformed).
  bool writes_ttl = false;
  /// Advances the RR pointer by one slot under a fullness/bounds guard.
  bool stamps = false;
  /// Skips per-stamp option revalidation — legal only while no fault
  /// opcode can have rewritten option bytes.
  bool trusted = false;
  /// May rewrite option content (and exhaust the RR pointer) mid-walk.
  bool fault = false;
  /// Touches IP options at all (legal only in the has_options bank).
  bool needs_options = false;
  /// RFC 1624 checksum commits the opcode performs on the wire header.
  int commits = 0;
};

/// The transfer-function table entry for `op`; nullptr for a nibble that
/// decodes to no known opcode.
[[nodiscard]] const OpModel* op_model(sim::ElementOp op) noexcept;

/// One proved-false invariant on one run list.
struct Violation {
  std::uint8_t flags = 0;
  bool has_options = false;
  sim::PackedRunList list = 0;
  std::string invariant;  // short id: "order", "ttl-monotone", ...
  std::string message;
};

/// One table entry's proof: the abstract post-state plus the verdict.
struct EntryProof {
  std::uint8_t flags = 0;
  bool has_options = false;
  sim::PackedRunList list = 0;
  std::size_t steps = 0;
  AbstractHeader post;
  bool ok = true;
};

/// A full run-table verification: 2 x 32 entry proofs plus every violation
/// found (empty == the table is sound for this config).
struct TableReport {
  sim::PipelineConfig config;
  std::vector<EntryProof> entries;
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Abstractly executes `list` and checks the class-level invariants
/// (structure, ordering, TTL/RR monotonicity, checksum balance, trusted-
/// stamp licensing, fused-vs-unfused equivalence). `options` pins the
/// option lattice at entry. `post`, when non-null, receives the abstract
/// post-state.
[[nodiscard]] std::vector<Violation> verify_list(
    sim::PackedRunList list, OptionState options,
    const sim::PipelineConfig& config, AbstractHeader* post = nullptr);

/// Verifies one (flags, has_options) table entry: the class-level
/// invariants plus the independently re-derived personality spec (which
/// opcodes this personality must and must not contain).
[[nodiscard]] std::vector<Violation> verify_entry(
    sim::PackedRunList list, std::uint8_t flags, bool has_options,
    const sim::PipelineConfig& config, AbstractHeader* post = nullptr);

/// Verifies an element chain as the compiler would pack it. A chain longer
/// than the 8-opcode run-list capacity is itself a violation ("overflow"):
/// run_list_append rejects the ninth opcode, so an over-long compile would
/// silently drop behaviour.
[[nodiscard]] std::vector<Violation> verify_chain(
    std::span<const sim::ElementOp> chain, OptionState options,
    const sim::PipelineConfig& config);

/// Verifies every entry of a compiled table (the three wiring points all
/// funnel here).
[[nodiscard]] TableReport verify_run_table(const sim::RunTable& table,
                                           const sim::PipelineConfig& config);

/// Cheap boolean for the freeze-time debug assert in sim/pipeline.cpp.
[[nodiscard]] bool run_table_sound(const sim::RunTable& table,
                                   const sim::PipelineConfig& config);

/// Human-readable per-entry proof/violation report (the CLI's output and
/// the CI artifact). `verbose` includes every proved entry, not just the
/// violations and the summary.
[[nodiscard]] std::string format_report(const TableReport& report,
                                        bool verbose);

/// One-line description of a config, for report headers.
[[nodiscard]] std::string describe_config(const sim::PipelineConfig& config);

}  // namespace rr::verify
