// Package store makes graph updates first-class in the serving path: a
// Store owns a graph plus its access-constraint indexes and publishes an
// immutable epoch Snapshot (graph, frozen CSR, indexes, epoch) after every
// accepted batch of graph.Delta updates. Readers pick snapshots up with
// one atomic pointer load and pin them for the duration of a query, so
// in-flight queries keep a consistent view while the writer builds the
// next epoch — the paper's §II incremental maintenance (ΔG, NbG(ΔG))
// turned into a read/write store.
//
// # The double-instance copy-on-write protocol
//
// The store keeps two full (graph, indexes) instances. The published
// snapshot is backed by one; the writer applies the next batch to the
// other — first replaying the deltas it is behind by (the "lag") — then
// refreshes the CSR snapshot incrementally (graph.Frozen.Refresh,
// proportional to |NbG(ΔG)|) and swaps the published pointer. Each
// accepted delta is therefore applied exactly twice, once per instance,
// at O(|ΔG ∪ NbG(ΔG)|) each — independent of |G|. The second instance is
// cloned lazily on the first update, so a read-only store costs nothing
// extra.
//
// The drain invariant makes this safe: before mutating an instance the
// writer waits until no reader still pins the snapshot that last exposed
// it. Acquire pins with a refcount and backs out of snapshots the writer
// has already retired, so the wait is bounded by query latency: the
// instance behind epoch E becomes writable only after every reader of
// E has released — which is why a snapshot must be released promptly,
// and why no query ever observes a half-applied epoch.
//
// # One writer sequence
//
// Every write runs through a Txn: begin (take the writer lock, prepare
// the shadow as above) → Stage each delta and settle its verdict → Log
// the survivors → Commit (record the change ring, refresh the CSR, swap
// the pointer, advance the log's published offset, rotate the
// instances) — or Wedge. The group-commit leader behind Apply, the
// replica path (ApplyReplicated) and the shard router (one Txn per
// participant shard) are three callers of that one sequence; they differ
// only in who judges a staged delta.
//
// # Group commit
//
// Apply is the client-facing write path, and it batches: concurrently
// submitted deltas queue up while one caller — the leader, whichever
// Apply call takes the writer lock first — drains the whole queue and
// commits it as a single epoch. Each delta in the batch keeps its
// individual accept/reject verdict (staged, checked against the bounds,
// kept or rolled back, in queue order), but the fixed per-epoch
// overheads — waiting out readers, the CSR refresh, the pointer swap, and
// the WAL fsync — are paid once per batch instead of once per delta. Under a
// write burst the epoch rate and the fsync rate both collapse to the
// batch rate (see BenchmarkGroupCommit), which is exactly the update
// batching the per-epoch fixed costs call for at small |ΔG|. The queue,
// its settle step and the publication signal are the exported Queue,
// Settle and Signal, which the shard router's leader drives the same way.
//
// A delta that fails structurally or would break an access constraint is
// rejected atomically: the published state is bit-for-bit unaffected and
// the delta is never logged.
//
// # Durability
//
// With WithWAL the store threads every accepted delta through an
// internal/wal log *before* publishing the epoch that contains it:
// commit order is append (one record per accepted delta, stamped with the
// epoch) → fsync (one per batch, policy permitting) → publish. A crash at
// any point therefore loses nothing that was reported committed, and
// recovery (wal.Dir.Recover + WithBaseEpoch) replays the log tail onto
// the last checkpoint snapshot, reconstructing the exact published state.
// Checkpoint rewrites the snapshot at the current epoch and rotates the
// log so replay stays short. If the log itself fails mid-batch the store
// wedges: the batch errors with ErrWedged, records it already appended
// are rewound out of the log (recovery must not replay updates whose
// callers were told they failed), no epoch is published, and every
// writer entrance refuses with ErrWedged from then on — readers keep the
// last durable state, and Stats reports Wedged.
package store
