(** The observability event taxonomy.

    One typed constructor per thing the runtime can tell an observer
    about: segment lifecycle (with granule counts, so tag-traffic cost
    is attributable per site), MTE tag-check faults and near-misses,
    PAC sign/auth, deferred TFSR drains, memory growth, host calls,
    function enter/leave, and the supervisor's crash/spawn records.

    This module (and the whole [obs] library) deliberately depends on
    nothing: tags are [int]s, addresses are [int64]s, functions are
    (index, name) pairs. That is what lets [Arch.Mte], [Wasm.Exec] and
    [Cage.Supervisor] all emit into the same sink without a dependency
    cycle. *)

type access = Load | Store

type t =
  | Seg_new of { addr : int64; len : int64; granules : int; tag : int }
  | Seg_set_tag of { addr : int64; len : int64; granules : int; tag : int }
  | Seg_free of { addr : int64; len : int64; granules : int; tag : int }
  | Tag_fault of {
      addr : int64;
      len : int64;
      ptr_tag : int;
      mem_tag : int option;
      access : access;
      deferred : bool;  (** latched in TFSR rather than trapping *)
    }
  | Tag_near_miss of {
      addr : int64;
      len : int64;
      tag : int;
      neighbour_tag : int;
          (** the differently-tagged granule just past the span *)
    }
  | Tfsr_drain of { addr : int64 }
  | Pac_sign of { ptr : int64 }
  | Pac_auth of { ptr : int64; ok : bool }
  | Mem_grow of { delta_pages : int64; new_pages : int64 }
  | Host_call of { name : string }
  | Func_enter of { idx : int; name : string }
  | Func_leave of { idx : int; name : string }
  | Crash of { cls : string; msg : string }
  | Spawn of { instance : int }
  | Snapshot_restore of { instance : int; bytes : int; cycles : int }
      (** a pool slot rewound to its frozen post-[_start] image
          (memory + tags + globals + table + PRNG), [bytes] of payload,
          priced [cycles] by the snapshot's restore model *)
  | Quarantine_evicted of { instance : int }
      (** a retained post-mortem dropped by the supervisor's
          oldest-first quarantine cap *)
  | Request_retry of { tenant : string; attempt : int }
      (** a contained-fault request re-admitted with backoff *)
  | Request_shed of { tenant : string; reason : string }
      (** an arrival refused by admission control ([reason] is
          ["queue"], ["breaker"] or ["attempts"]) *)
  | Breaker_trip of { tenant : string }
      (** a per-tenant circuit breaker opened after consecutive
          crashes *)
  | Check_elided
      (** a load/store whose MTE granule check was skipped because the
          static analyzer proved it in-bounds on a live segment *)
  | Bounds_elided
      (** a load/store whose sandbox span check was also skipped: the
          analyzer proved the span inside a successfully created
          segment, which by construction lies inside linear memory *)
  | Tag_writes_elided of { granules : int }
      (** a [segment.new]/[segment.free] lowered to arena form by the
          escape analysis: [granules] tag-plane writes skipped *)
  | Spec_unsafe_elision
      (** an elision that is architecturally sound but does not survive
          the Swivel-style speculation model (its proof leans on a
          refinable branch); reported by the lint, kept checked under
          [--no-spec-elide] *)
  | Stack_sanitize of {
      total : int;
      instrumented : int;
      escaping : int;
      unsafe_gep : int;
      guards : int;
    }  (** per-module stack-sanitizer decision totals (Algorithm 1) *)
  | Code_fuse of {
      instrs : int;
      fused : int;
      accesses : int;
      elided : int;
    }
      (** per-module threaded-code lowering totals: source instructions
          lowered, instructions absorbed into fused superinstructions,
          memory accesses lowered, and accesses whose granule check was
          elided at compile time *)

let access_to_string = function Load -> "load" | Store -> "store"

(** Short stable name (Chrome trace-event [name], metric labels). *)
let name = function
  | Seg_new _ -> "segment.new"
  | Seg_set_tag _ -> "segment.set_tag"
  | Seg_free _ -> "segment.free"
  | Tag_fault { deferred = false; _ } -> "tag-check-fault"
  | Tag_fault { deferred = true; _ } -> "tag-check-fault-deferred"
  | Tag_near_miss _ -> "tag-check-near-miss"
  | Tfsr_drain _ -> "tfsr-drain"
  | Pac_sign _ -> "pac.sign"
  | Pac_auth { ok = true; _ } -> "pac.auth"
  | Pac_auth { ok = false; _ } -> "pac.auth-fail"
  | Mem_grow _ -> "memory.grow"
  | Host_call _ -> "host-call"
  | Func_enter _ -> "func"
  | Func_leave _ -> "func"
  | Crash _ -> "crash"
  | Spawn _ -> "spawn"
  | Snapshot_restore _ -> "snapshot.restore"
  | Quarantine_evicted _ -> "quarantine-evicted"
  | Request_retry _ -> "request-retry"
  | Request_shed _ -> "request-shed"
  | Breaker_trip _ -> "breaker-trip"
  | Check_elided -> "check-elided"
  | Bounds_elided -> "bounds-elided"
  | Tag_writes_elided _ -> "tag-writes-elided"
  | Spec_unsafe_elision -> "spec-unsafe-elision"
  | Stack_sanitize _ -> "stack-sanitize"
  | Code_fuse _ -> "code-fuse"

(** Default simulated-cycle cost of the event itself, on top of the
    one-cycle-per-interpreted-op clock: rough Cortex-X3 prices from the
    Table 1 instrument set ([stg]-style granule tagging at ~2 granules
    per cycle, ~5-cycle [pacda]/[autda], fault delivery as an exception
    envelope). A restore carries its own modeled price. *)
let cost = function
  | Seg_new { granules; _ } | Seg_set_tag { granules; _ }
  | Seg_free { granules; _ } ->
      2 + (granules / 2)
  | Tag_fault { deferred = false; _ } -> 40
  | Tag_fault { deferred = true; _ } -> 1
  | Tag_near_miss _ -> 0
  | Tfsr_drain _ -> 10
  | Pac_sign _ | Pac_auth _ -> 5
  | Mem_grow _ -> 100
  | Host_call _ -> 20
  | Func_enter _ | Func_leave _ -> 2
  | Crash _ | Spawn _ -> 0
  | Snapshot_restore { cycles; _ } -> cycles
  | Quarantine_evicted _ -> 0
  | Request_retry _ | Request_shed _ | Breaker_trip _ -> 0
  | Check_elided -> 0  (* the whole point: the check costs nothing *)
  | Bounds_elided -> 0
  | Tag_writes_elided _ -> 0  (* savings, not cost *)
  | Spec_unsafe_elision -> 0
  | Stack_sanitize _ -> 0
  | Code_fuse _ -> 0

(** Human-readable one-liner (black-box recorder, debugging). *)
let pp ppf ev =
  let f fmt = Format.fprintf ppf fmt in
  match ev with
  | Seg_new { addr; len; granules; tag } ->
      f "segment.new addr=0x%Lx len=%Ld granules=%d tag=%d" addr len granules
        tag
  | Seg_set_tag { addr; len; granules; tag } ->
      f "segment.set_tag addr=0x%Lx len=%Ld granules=%d tag=%d" addr len
        granules tag
  | Seg_free { addr; len; granules; tag } ->
      f "segment.free addr=0x%Lx len=%Ld granules=%d tag=%d" addr len granules
        tag
  | Tag_fault { addr; len; ptr_tag; mem_tag; access; deferred } ->
      f "tag-check-fault%s %s of %Ld B at 0x%Lx ptr-tag=%d mem-tag=%s"
        (if deferred then " (deferred)" else "")
        (access_to_string access) len addr ptr_tag
        (match mem_tag with Some t -> string_of_int t | None -> "?")
  | Tag_near_miss { addr; len; tag; neighbour_tag } ->
      f "tag-check-near-miss at 0x%Lx len=%Ld tag=%d neighbour-tag=%d" addr
        len tag neighbour_tag
  | Tfsr_drain { addr } -> f "tfsr-drain addr=0x%Lx" addr
  | Pac_sign { ptr } -> f "pac.sign ptr=0x%Lx" ptr
  | Pac_auth { ptr; ok } ->
      f "pac.auth ptr=0x%Lx %s" ptr (if ok then "ok" else "FAILED")
  | Mem_grow { delta_pages; new_pages } ->
      f "memory.grow +%Ld pages -> %Ld" delta_pages new_pages
  | Host_call { name } -> f "host-call %s" name
  | Func_enter { idx; name } -> f "enter %s (f%d)" name idx
  | Func_leave { idx; name } -> f "leave %s (f%d)" name idx
  | Crash { cls; msg } -> f "crash [%s] %s" cls msg
  | Spawn { instance } -> f "spawn instance %d" instance
  | Snapshot_restore { instance; bytes; _ } ->
      f "snapshot.restore instance %d (%d B)" instance bytes
  | Quarantine_evicted { instance } ->
      f "quarantine-evicted instance %d" instance
  | Request_retry { tenant; attempt } ->
      f "request-retry tenant=%s attempt=%d" tenant attempt
  | Request_shed { tenant; reason } ->
      f "request-shed tenant=%s reason=%s" tenant reason
  | Breaker_trip { tenant } -> f "breaker-trip tenant=%s" tenant
  | Check_elided -> f "check-elided"
  | Bounds_elided -> f "bounds-elided"
  | Tag_writes_elided { granules } ->
      f "tag-writes-elided granules=%d" granules
  | Spec_unsafe_elision -> f "spec-unsafe-elision"
  | Stack_sanitize { total; instrumented; escaping; unsafe_gep; guards } ->
      f "stack-sanitize slots=%d instrumented=%d escaping=%d unsafe-gep=%d \
         guards=%d"
        total instrumented escaping unsafe_gep guards
  | Code_fuse { instrs; fused; accesses; elided } ->
      f "code-fuse instrs=%d fused=%d accesses=%d elided=%d" instrs fused
        accesses elided

let to_string ev = Format.asprintf "%a" pp ev
