type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* Option-free probe: [peek st = Some c] would compare char options with
   polymorphic equality. *)
let peek_is st ch =
  st.pos < String.length st.src && Char.equal st.src.[st.pos] ch

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st ch =
  match peek st with
  | Some c when c = ch -> advance st
  | Some c -> error st.pos "expected %c, found %c" ch c
  | None -> error st.pos "expected %c, found end of input" ch

let parse_literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.sub st.src st.pos len = word
  then begin
    st.pos <- st.pos + len;
    value
  end
  else error st.pos "invalid literal"

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st.pos "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            (* \uXXXX: decode the code point as UTF-8 (no surrogate-pair
               handling — configuration files do not need astral planes). *)
            advance st;
            if st.pos + 4 > String.length st.src then
              error st.pos "truncated unicode escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> error st.pos "bad unicode escape"
            | Some cp ->
                if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end);
            go ()
        | _ -> error st.pos "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> error start "invalid number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st.pos "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st.pos "unexpected character %c" c

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek_is st '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ((key, value) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, value) :: acc))
      | _ -> error st.pos "expected , or } in object"
    in
    members []
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek_is st ']' then begin
    advance st;
    List []
  end
  else begin
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          elements (value :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (value :: acc))
      | _ -> error st.pos "expected , or ] in array"
    in
    elements []
  end

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | value ->
      skip_ws st;
      if st.pos <> String.length src then
        Error (Printf.sprintf "offset %d: trailing content" st.pos)
      else Ok value
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "offset %d: %s" pos msg)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf {|\"|}
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | '\t' -> Buffer.add_string buf {|\t|}
      | '\r' -> Buffer.add_string buf {|\r|}
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf {|\u%04x|} (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number f when not (Float.is_finite f) -> "null"
  | Number f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | String s -> escape_string s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj members ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> escape_string k ^ ":" ^ to_string v)
             members)
      ^ "}"

let member v key =
  match v with
  | Obj members -> (
      match List.assoc_opt key members with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected an object around field %S" key)

let member_opt v key =
  match v with Obj members -> List.assoc_opt key members | _ -> None

let to_float = function
  | Number f -> Ok f
  | _ -> Error "expected a number"

(* Every integral float in [-2^62, 2^62) is an int; [min_int] is -2^62. *)
let to_int = function
  | Number f when Float.is_integer f ->
      if f >= Float.of_int min_int && f < -.Float.of_int min_int then
        Ok (int_of_float f)
      else Error "integer out of range"
  | Number _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_bool = function Bool b -> Ok b | _ -> Error "expected a boolean"
let to_str = function String s -> Ok s | _ -> Error "expected a string"
let to_list = function List l -> Ok l | _ -> Error "expected an array"

let with_default v key ~default conv =
  match member_opt v key with
  | None -> Ok default
  | Some x -> (
      match conv x with
      | Ok r -> Ok r
      | Error e -> Error (Printf.sprintf "field %S: %s" key e))

let member_str v key ~default = with_default v key ~default to_str
let member_int v key ~default = with_default v key ~default to_int
let member_float v key ~default = with_default v key ~default to_float
