(* The configuration flags the Cage executables share: a Table 3
   variant by name and the elision-plan flags as one variant transform. *)

open Cmdliner

let variant =
  let parse s =
    match
      List.find_opt
        (fun c -> String.equal c.Cage.Config.name s)
        Cage.Config.table3
    with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown config %S; one of: %s" s
                (String.concat ", "
                   (List.map (fun c -> c.Cage.Config.name) Cage.Config.table3))))
  in
  let print ppf c = Format.pp_print_string ppf c.Cage.Config.name in
  Arg.conv (parse, print)

let config default =
  Arg.(value & opt variant default
       & info [ "config" ] ~docv:"CONFIG"
           ~doc:"Runtime configuration (Table 3 variant name).")

(* The elision plan a set of flags selects, as a variant transform.
   [bounds] implies [elide] and brings arena lowering with it. *)
let plan ~elide ~bounds ~spec_safe cfg =
  let cfg =
    if bounds then Cage.Config.with_arena (Cage.Config.with_bounds_elision cfg)
    else if elide then Cage.Config.with_elision cfg
    else cfg
  in
  if spec_safe then Cage.Config.with_spec_safe_only cfg else cfg

let elision =
  let elide =
    Arg.(value & flag & info [ "elide-checks" ]
           ~doc:"Run the static tag-safety analysis and skip the MTE granule \
                 checks it proved redundant.")
  in
  let bounds =
    Arg.(value & flag & info [ "elide-bounds" ]
           ~doc:"Implies --elide-checks: also skip the sandbox span checks \
                 the analysis proved redundant and lower non-escaping \
                 segments to the tag-write-free arena form.")
  in
  let spec_safe =
    Arg.(value & flag & info [ "no-spec-elide" ]
           ~doc:"Keep every check whose elision proof does not survive the \
                 Swivel-style speculation model.")
  in
  Term.(
    const (fun elide bounds spec_safe -> plan ~elide ~bounds ~spec_safe)
    $ elide $ bounds $ spec_safe)
