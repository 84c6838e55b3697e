(** Module instances and the store.

    Fig. 11 of the paper augments the wasm store with a per-granule tag
    map ([taginst]) and a per-instance secret key ([k_s]); both live
    here. The MTE engine holds the tag map together with the checking
    mode; the PAC key signs function pointers such that signatures from
    one instance never validate in another. *)

exception Trap of string

(** Which execution engine drives an instance. [Threaded] (the default)
    lowers every function of the validated module into flat threaded
    code at instantiation ({!Compile}); [Interp] runs the tree-walking
    reference interpreter. Both are observationally identical — same
    results, traps, meter totals, obs events and chaos draws. *)
type engine = Interp | Threaded

(** A host function receives the calling instance (so WASI-style
    imports can access its memory) and the arguments; it returns the
    results or raises {!Trap}. *)
type host_func = t -> Values.t list -> Values.t list

and func_inst =
  | Wasm_func of {
      inst_id : int;
      func : Ast.func;
      ty : Types.func_type;
      code : Code.func;
          (** body prepared at instantiation: label arities and
              br_table targets resolved, O(1) at branch time *)
      mutable xcode : t Xcode.func option;
          (** the same body lowered to threaded code ([None] exactly
              when the engine is [Interp]); filled in at instantiation,
              after the instance exists *)
    }
  | Host_func of { fn : host_func; ty : Types.func_type; name : string }

and t = {
  id : int;
  module_ : Ast.module_;
  types : Types.func_type array;  (** the module's type index space *)
  funcs : func_inst array;
  table : int option array;  (** function indices, [| |] if no table *)
  mem : Memory.t option;
  mte : Arch.Mte.t option;   (** tag store + checking mode; [None] only
                                 when the module has no memory *)
  globals : Values.t array;
  pac_key : Arch.Pac.key;    (** the per-instance k_s *)
  pac_modifier : int64;      (** per-instance modifier when several
                                 instances share a process (§6.3) *)
  pac_config : Arch.Pac.config;
  exclude : Arch.Tag.Exclude.t;  (** tags irg-style allocation avoids *)
  enforce_tags : bool;       (** internal memory safety on/off *)
  mutable rng : Random.State.t;
      (** tag-draw PRNG; mutable so a snapshot restore can rewind it —
          a restored instance must draw the same [irg] tag sequence the
          frozen one would have *)
  meter : Meter.t option;
  mutable fuel : int;
      (** watchdog budget: branches/calls left before a ["fuel:"] trap;
          [-1] disables the watchdog *)
  mutable call_stack : int list;
      (** function indices of the live wasm frames, innermost first.
          Frames are popped on normal return only, so after a trap the
          frozen stack is the crash backtrace a supervisor snapshots. *)
  mutable last_fault : Arch.Mte.fault option;
      (** structured record of the most recent tag fault raised as a
          trap — the faulting address / tags / access kind a post-mortem
          reports without re-parsing the trap message *)
  mutable chaos : Arch.Fault_inject.lane option;
      (** the chaos lane the instance is armed on ({!arm}); its MTE
          unit holds the same lane *)
}

(** Runtime configuration for instantiation, reflecting the Table 3
    variants. *)
type config = {
  enforce_tags : bool;
      (** check allocation tags on every access (Eqs. 1-4) *)
  mte_mode : Arch.Mte.mode;
  exclude : Arch.Tag.Exclude.t;
      (** Cage reserves tag 0 for guard slots/untagged segments by
          default; sandbox-combined configs exclude more (§6.4) *)
  pac_config : Arch.Pac.config;
  pac_modifier : int64;
  pac_key : Arch.Pac.key option;
      (** [Some k] shares a process-wide key (instances are then isolated
          by distinct modifiers, §6.3); [None] generates a fresh key. *)
  seed : int;
  meter : Meter.t option;
  fuel : int;  (** initial watchdog budget; [-1] = unlimited *)
  elide : Bytes.t array;
      (** per-local-function elision bitsets from the static analyzer
          (index = function index minus imports, see {!Code.elidable});
          [[||]] (the default) disables elision entirely *)
  belide : Bytes.t array;
      (** bounds-elision bitsets (full-check elision); same indexing *)
  arena : Bytes.t array;
      (** arena bitsets over [segment.new]/[segment.free] instructions
          (escape analysis: tag-plane writes skipped); same indexing *)
  engine : engine;
}

let default_config = {
  enforce_tags = true;
  mte_mode = Arch.Mte.Sync;
  exclude = Arch.Tag.Exclude.of_list [ Arch.Tag.zero ];
  pac_config = Arch.Pac.default_config;
  pac_modifier = 0L;
  pac_key = None;
  seed = 0;
  meter = None;
  fuel = -1;
  elide = [||];
  belide = [||];
  arena = [||];
  engine = Threaded;
}

let func_type = function
  | Wasm_func { ty; _ } -> ty
  | Host_func { ty; _ } -> ty

let memory t =
  match t.mem with
  | Some m -> m
  | None -> raise (Trap "no memory in instance")

let mte t =
  match t.mte with
  | Some m -> m
  | None -> raise (Trap "no memory in instance")

(** Arm the instance on a chaos lane: from now on its pointer
    resolution, PAC authentication, segment frees and MTE unit draw
    their faults on [lane], and its sync points apply the lane's
    pending heap scribble. An unarmed instance makes no draw. *)
let arm t lane =
  t.chaos <- Some lane;
  Option.iter (fun m -> Arch.Mte.arm m lane) t.mte

let find_export t name =
  List.find_map
    (fun (ex : Ast.export) ->
      if String.equal ex.ex_name name then Some ex.ex_desc else None)
    t.module_.exports

let exported_func t name =
  match find_export t name with
  | Some (Ast.Func_export i) -> Some i
  | _ -> None

(** Tags currently in the instance's tag store (diagnostics/tests). *)
let tag_of_addr t addr = Arch.Tag_memory.get (Arch.Mte.tag_memory (mte t)) addr

(** Printable name of function index [i] — its source name when the
    front end recorded one, [f<i>] otherwise (backtraces). *)
let func_name t i =
  if i < 0 || i >= Array.length t.funcs then Printf.sprintf "f%d" i
  else
    match t.funcs.(i) with
    | Host_func { name; _ } -> name
    | Wasm_func { func; _ } -> (
        match func.Ast.fname with
        | Some n -> n
        | None -> Printf.sprintf "f%d" i)
