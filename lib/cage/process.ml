(** Multi-instance processes (paper §6.3).

    PAC keys are shared per OS process, so when several WASM instances
    run in one process Cage cannot give each its own key. Instead it
    draws one process key and a {e random per-instance modifier}: the
    modifier enters the signature computation, so a function pointer
    signed in one instance never authenticates in another — the WebOS
    scenario of §3 where instances share a common library. *)

type t = {
  pac_key : Arch.Pac.key;
  config : Config.t;
  rng : Random.State.t;
  mutable instances : Wasm.Instance.t list;
}

let create ?(config = Config.full) ?(seed = 42) () =
  let rng = Random.State.make [| seed |] in
  {
    pac_key =
      Arch.Pac.random_key ~rng:(fun () -> Random.State.int64 rng Int64.max_int);
    config;
    rng;
    instances = [];
  }

(** Instantiate a module inside the process: shared PAC key, fresh
    random modifier. Enforces the §6.4 sandbox-count limit. *)
let spawn ?meter ?imports t m =
  if
    t.config.sandbox = Config.Mte_sandbox
    && List.length t.instances >= Config.max_sandboxes t.config
  then raise Sandbox.Too_many_sandboxes;
  let config =
    {
      (Config.instance_config ?meter ~seed:(Random.State.int t.rng 1_000_000)
         ~m t.config)
      with
      pac_key = Some t.pac_key;
      pac_modifier = Random.State.int64 t.rng Int64.max_int;
    }
  in
  let inst = Wasm.Exec.instantiate ~config ?imports m in
  t.instances <- t.instances @ [ inst ];
  if Obs.Hook.enabled () then begin
    Obs.Hook.set_instance inst.Wasm.Instance.id;
    Obs.Hook.event (Obs.Event.Spawn { instance = inst.Wasm.Instance.id })
  end;
  inst

let instance_count t = List.length t.instances
let instances t = t.instances

(** Kernel-style TFSR inspection across the process (paper §4.2): at a
    context switch the kernel reads every thread's sticky tag-fault
    state. Drains each instance's pending deferred fault and returns
    them as (instance id, fault) pairs in spawn order — empty when no
    Async/Asymmetric mismatch occurred since the last poll. *)
let poll_deferred_faults t =
  List.filter_map
    (fun (inst : Wasm.Instance.t) ->
      match inst.Wasm.Instance.mte with
      | None -> None
      | Some mte ->
          Option.map
            (fun f -> (inst.Wasm.Instance.id, f))
            (Arch.Mte.take_pending mte))
    t.instances
