(** cage-lint: deterministic whole-module diagnostics from the
    {!Absint} dataflow — statically-definite use-after-free, double
    free, constant out-of-bounds accesses (including bulk
    [memory.fill]/[memory.copy] spans and [strcpy] from constant
    strings), untagged pointers flowing into checked accesses, and
    segments leaked on some path.

    [~wspectre] additionally classifies every elidable access under the
    Swivel-style speculation model: an access whose proof leans on a
    branch refinement is architecturally safe to elide but {e not} under
    branch misspeculation — those sites are listed and counted, and the
    [--no-spec-elide] runtime mode keeps their checks.

    Output is fully deterministic (sorted, deduplicated), so it can be
    golden-diffed in CI — as text ({!to_lines}) or JSON ({!to_json},
    same ordering). *)

type t = {
  diags : Absint.diag list;
  spectre : string list;  (** rendered spec-unsafe sites, sorted *)
  definite : int;
  possible : int;
  elide_proven : int;
  elide_considered : int;
  bounds_proven : int;
  arena_sites : int;
  spec_unsafe : int;
  wspectre : bool;
}

let run ?(wspectre = false) (m : Wasm.Ast.module_) : t =
  let a, sp =
    if wspectre then
      let a, sp = Absint.analyze_both m in
      (a, Some sp)
    else (Absint.analyze m, None)
  in
  let p = Elide.of_analysis ~arena:true a in
  let spectre, spec_unsafe =
    match sp with
    | None -> ([], 0)
    | Some sp ->
        let sites = Elide.spec_unsafe_sites a sp in
        let ix = a.Absint.a_ix in
        let render (f, id) =
          Printf.sprintf
            "spectre: %s: access %d elidable architecturally but unsafe under \
             speculation"
            (Wasm.Ast.func_name ix (Array.length ix.Wasm.Ast.ix_imports + f))
            id
        in
        (List.sort compare (List.map render sites), List.length sites)
  in
  let definite, possible =
    List.fold_left
      (fun (d, po) (x : Absint.diag) ->
        match x.d_severity with
        | Absint.Definite -> (d + 1, po)
        | Absint.Possible -> (d, po + 1))
      (0, 0) a.Absint.a_diags
  in
  {
    diags = a.Absint.a_diags;
    spectre;
    definite;
    possible;
    elide_proven = p.Elide.proven;
    elide_considered = p.Elide.considered;
    bounds_proven = p.Elide.bproven;
    arena_sites = p.Elide.arena_sites;
    spec_unsafe;
    wspectre;
  }

let clean t = t.diags = []

(** Render one line per diagnostic plus a summary line — the exact
    format [cage_lint] prints and the lint golden pins. *)
let to_lines t =
  List.map Absint.diag_to_string t.diags
  @ t.spectre
  @ [
      Printf.sprintf
        "%d definite, %d possible; %d/%d checked accesses elidable, %d \
         span-provable; %d allocation sites arena-lowerable"
        t.definite t.possible t.elide_proven t.elide_considered t.bounds_proven
        t.arena_sites;
    ]
  @ (if t.wspectre then
       [
         Printf.sprintf
           "%d elisions unsafe under speculation (kept by --no-spec-elide)"
           t.spec_unsafe;
       ]
     else [])

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let json_string_list b key items ~indent =
  Buffer.add_string b (Printf.sprintf "%s\"%s\": [" indent key);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n%s  \"" indent);
      Obs.Trace.json_escape b s;
      Buffer.add_char b '"')
    items;
  if items <> [] then Buffer.add_string b (Printf.sprintf "\n%s" indent);
  Buffer.add_char b ']'

(** The whole report as stable, pretty-printed JSON: diagnostics and
    spectre sites in exactly {!to_lines}' order, then a summary object
    with fixed key order — golden-diffable like the text path. *)
let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  json_string_list b "diagnostics"
    (List.map Absint.diag_to_string t.diags)
    ~indent:"  ";
  Buffer.add_string b ",\n";
  json_string_list b "spectre" t.spectre ~indent:"  ";
  Buffer.add_string b ",\n  \"summary\": {";
  let field i (k, v) =
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" k v)
  in
  List.iteri field
    [
      ("definite", t.definite);
      ("possible", t.possible);
      ("elide_proven", t.elide_proven);
      ("elide_considered", t.elide_considered);
      ("bounds_proven", t.bounds_proven);
      ("arena_sites", t.arena_sites);
      ("spec_unsafe", t.spec_unsafe);
    ];
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b
