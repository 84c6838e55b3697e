(** WebAssembly binary format: encoder and decoder.

    Follows the wasm core binary format (LEB128 integers, sections in
    index order) plus:

    - the memory64 limits flag (bit 2) for 64-bit memories;
    - the Cage extension instructions, encoded under the reserved
      [0xfb] prefix with sub-opcodes 1-5:

    {v
    0xfb 0x01 o  segment.new       0xfb 0x04    i64.pointer_sign
    0xfb 0x02 o  segment.set_tag   0xfb 0x05    i64.pointer_auth
    0xfb 0x03 o  segment.free
    v}

    Every opcode of an instruction with no immediate but a memarg comes
    from {!Opcode}. [decode (encode m)] equals [m] up to function debug
    names, which the binary format does not carry. Decoding performs
    structural checks (magic, version, section sizes, vector bounds) but
    not validation — run {!Validate.validate} on the result before
    executing it. *)

exception Decode_error of string

val encode : Ast.module_ -> string
(** Serialise a module to binary bytes.
    @raise Invalid_argument on a packed load or store that has no opcode
    ([i32.load32_s], [f32.store8], ...). *)

val decode : string -> Ast.module_
(** Parse binary bytes. No input loops, and malformed input raises
    nothing but [Decode_error]: a u32 above [0xffff_ffff], a section,
    vector, name or data segment longer than the bytes left, function
    and code sections of different lengths, and a function declaring
    more than 50,000 locals are all malformed.
    @raise Decode_error on malformed input. *)

val write_file : string -> Ast.module_ -> unit
(** Encode and write a [.wasm] file. *)

val read_file : string -> Ast.module_
(** Read and decode a [.wasm] file. @raise Decode_error, [Sys_error]. *)
