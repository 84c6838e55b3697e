(** Hand-rolled lexer for MiniC. Tracks line numbers for diagnostics and
    supports C and C++ comments, character/string escapes, hex literals
    and float literals. The parser pulls one token at a time through
    {!next}; nothing builds the whole token stream. *)

exception Lex_error of string * int  (** message, line *)

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok_line : int;  (** line of the token {!next} returned last *)
}

let create src = { src; pos = 0; line = 1; tok_line = 1 }

let at_end lx = lx.pos >= String.length lx.src

(* The character [k] places ahead, or NUL past the end of input: where
   a NUL byte and the end differ, the caller tests [at_end]. *)
let char_at lx k =
  let i = lx.pos + k in
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

let advance lx =
  if char_at lx 0 = '\n' then lx.line <- lx.line + 1;
  lx.pos <- lx.pos + 1

let error lx fmt =
  Format.kasprintf (fun s -> raise (Lex_error (s, lx.line))) fmt

let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let skip_while lx pred = while pred (char_at lx 0) do advance lx done
let skip_line lx = while not (at_end lx || char_at lx 0 = '\n') do advance lx done

let rec skip_ws lx =
  match char_at lx 0 with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
  | '/' when char_at lx 1 = '/' ->
      skip_line lx;
      skip_ws lx
  | '/' when char_at lx 1 = '*' ->
      advance lx;
      advance lx;
      while not (char_at lx 0 = '*' && char_at lx 1 = '/') do
        if at_end lx then error lx "unterminated comment";
        advance lx
      done;
      advance lx;
      advance lx;
      skip_ws lx
  | '#' ->
      (* preprocessor lines (e.g. #include) are ignored: MiniC sources
         are self-contained *)
      skip_line lx;
      skip_ws lx
  | _ -> ()

let lex_escape lx =
  advance lx;
  if at_end lx then error lx "unterminated escape";
  let c =
    match char_at lx 0 with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | ('\\' | '\'' | '"') as c -> c
    | c -> error lx "unknown escape \\%c" c
  in
  advance lx;
  c

let int_lit lx start stop =
  let s = String.sub lx.src start (stop - start) in
  match Int64.of_string_opt s with
  | Some v -> Token.Int_lit v
  | None -> error lx "invalid integer literal %s" s

let lex_number lx =
  let start = lx.pos in
  if char_at lx 0 = '0' && (char_at lx 1 = 'x' || char_at lx 1 = 'X') then begin
    advance lx;
    advance lx;
    skip_while lx is_hex;
    int_lit lx start lx.pos
  end
  else begin
    (* up to 18 decimal digits fit an OCaml int; longer literals go
       through [Int64.of_string], which rejects what overflows *)
    let n = ref 0 in
    while is_digit (char_at lx 0) do
      n := (!n * 10) + Char.code (char_at lx 0) - Char.code '0';
      advance lx
    done;
    let is_float =
      match char_at lx 0 with
      | '.' -> (
          (* NUL: the end of input, or a byte the next token fails on *)
          match char_at lx 1 with
          | '0' .. '9' | ' ' | ';' | ')' | ',' | '/' | '*' | '+' | '-'
          | '\000' -> true
          | _ -> false)
      | 'e' | 'E' -> true
      | _ -> false
    in
    if is_float then begin
      if char_at lx 0 = '.' then begin
        advance lx;
        skip_while lx is_digit
      end;
      if char_at lx 0 = 'e' || char_at lx 0 = 'E' then begin
        advance lx;
        if char_at lx 0 = '+' || char_at lx 0 = '-' then advance lx;
        skip_while lx is_digit
      end;
      let s = String.sub lx.src start (lx.pos - start) in
      (* optional f suffix *)
      if char_at lx 0 = 'f' || char_at lx 0 = 'F' then advance lx;
      match float_of_string_opt s with
      | Some v -> Token.Float_lit v
      | None -> error lx "invalid float literal %s" s
    end
    else begin
      let stop = lx.pos in
      (* optional L/u suffixes *)
      skip_while lx (function 'l' | 'L' | 'u' | 'U' -> true | _ -> false);
      if stop - start <= 18 then Token.Int_lit (Int64.of_int !n)
      else int_lit lx start stop
    end
  end

(* A one- or two-character operator: [tok1] if [expect] follows. *)
let two lx expect tok1 tok0 =
  if char_at lx 0 = expect then (advance lx; tok1) else tok0

(** The next token; [tok_line] is set to the line it starts on. At the
    end of input this returns [Eof] again and again. *)
let next lx : Token.t =
  skip_ws lx;
  lx.tok_line <- lx.line;
  if at_end lx then Token.Eof
  else
    match char_at lx 0 with
    | '0' .. '9' -> lex_number lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
        let start = lx.pos in
        skip_while lx is_ident;
        let s = String.sub lx.src start (lx.pos - start) in
        match Token.keyword_of_string s with
        | Some kw -> kw
        | None -> Token.Ident s)
    | '"' ->
        advance lx;
        let buf = Buffer.create 16 in
        while char_at lx 0 <> '"' do
          if at_end lx then error lx "unterminated string";
          if char_at lx 0 = '\\' then Buffer.add_char buf (lex_escape lx)
          else begin
            Buffer.add_char buf (char_at lx 0);
            advance lx
          end
        done;
        advance lx;
        Token.String_lit (Buffer.contents buf)
    | '\'' ->
        advance lx;
        if at_end lx then error lx "unterminated char literal";
        let c =
          if char_at lx 0 = '\\' then lex_escape lx
          else begin
            let c = char_at lx 0 in
            advance lx;
            c
          end
        in
        if char_at lx 0 <> '\'' then error lx "unterminated char literal";
        advance lx;
        Token.Char_lit c
    | c -> (
        advance lx;
        match c with
        | '(' -> Token.LParen
        | ')' -> Token.RParen
        | '{' -> Token.LBrace
        | '}' -> Token.RBrace
        | '[' -> Token.LBracket
        | ']' -> Token.RBracket
        | ';' -> Token.Semi
        | ',' -> Token.Comma
        | '.' -> Token.Dot
        | '?' -> Token.Question
        | ':' -> Token.Colon
        | '~' -> Token.Tilde
        | '+' -> (
            match char_at lx 0 with
            | '+' -> advance lx; Token.PlusPlus
            | '=' -> advance lx; Token.PlusEq
            | _ -> Token.Plus)
        | '-' -> (
            match char_at lx 0 with
            | '-' -> advance lx; Token.MinusMinus
            | '=' -> advance lx; Token.MinusEq
            | '>' -> advance lx; Token.Arrow
            | _ -> Token.Minus)
        | '*' -> two lx '=' Token.StarEq Token.Star
        | '/' -> two lx '=' Token.SlashEq Token.Slash
        | '%' -> two lx '=' Token.PercentEq Token.Percent
        | '^' -> two lx '=' Token.CaretEq Token.Caret
        | '!' -> two lx '=' Token.NotEq Token.Bang
        | '=' -> two lx '=' Token.EqEq Token.Assign
        | '&' -> (
            match char_at lx 0 with
            | '&' -> advance lx; Token.AmpAmp
            | '=' -> advance lx; Token.AmpEq
            | _ -> Token.Amp)
        | '|' -> (
            match char_at lx 0 with
            | '|' -> advance lx; Token.PipePipe
            | '=' -> advance lx; Token.PipeEq
            | _ -> Token.Pipe)
        | '<' -> (
            match char_at lx 0 with
            | '<' -> advance lx; two lx '=' Token.ShlEq Token.Shl
            | '=' -> advance lx; Token.Le
            | _ -> Token.Lt)
        | '>' -> (
            match char_at lx 0 with
            | '>' -> advance lx; two lx '=' Token.ShrEq Token.Shr
            | '=' -> advance lx; Token.Ge
            | _ -> Token.Gt)
        | c -> error lx "unexpected character %C" c)
