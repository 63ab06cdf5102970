(** Admission fast path.

    The paper's complexity claims — O(1) rate-based admission, O(M)
    mixed-path admission over the merged breakpoint table (Sections
    3.1–3.2) — assume the per-path breakpoint table is {e maintained}, not
    rebuilt per request.  This cache keeps, for every registered path, the
    static part of its {!Admission.path_state} (hops, [d_tot], scheduler
    list) and its merged {!Admission.table}, in reused buffers:

    - one {b per-link} table shared by all paths crossing the link,
      refilled in full ({!Admission.fill}) when the link scheduler's
      {!Bbr_vtrs.Vtedf.version} moved;
    - one {b per-path} merged table, re-merged ({!Admission.merge}) only
      when a crossed scheduler's version moved.

    Versions are the only freshness key, and they are checked at query
    time: a burst of mutations costs one refill per link and one re-merge
    per path at its next query, and nothing needs invalidating — a
    restore books into the same schedulers, which bump their own
    versions.  The residual [C_res] is not cached: every query reads it
    through {!Path_mib.residual}, an O(h) min.

    The cache is digest-neutral by construction: it runs the same fill
    and merge as {!Admission.merge_breakpoints}, so the values handed out
    are element-wise identical to a fresh {!Admission.path_state} and
    merged table, and decisions and MIB digests match the uncached path
    exactly. *)

type t

val create : Node_mib.t -> Path_mib.t -> t
(** An empty cache over the given MIBs.  The cache only reads the
    schedulers, so any number of caches may share them. *)

val query : t -> Path_mib.info -> Admission.path_state * Admission.table
(** The path's {!Admission.path_state}, with [cres] read now, and its
    merged breakpoint table for {!Admission.admit}'s [?bps].  The returned
    table aliases internal buffers: it is valid until the next [query]
    on the same path. *)

type stats = {
  paths : int;  (** cached path entries *)
  hits : int;
      (** queries whose merged table was current (no link refresh, no
          re-merge) *)
  link_refreshes : int;  (** per-link breakpoint table refills *)
  merges : int;  (** per-path H-way re-merges *)
}

val stats : t -> stats
