type unop = Neg | Lnot

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type expr =
  | Int of int
  | Var of string
  | Index of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Select of expr * expr * expr

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr
  | If of { secret : bool; cond : expr; then_ : block; else_ : block }
  | While of expr * block
  | For of string * expr * expr * block
  | Expr of expr
  | Return of expr

and block = stmt list

type func = {
  fname : string;
  params : string list;
  locals : string list;
  body : block;
}

type array_decl = { aname : string; size : int; scratch : bool }

type program = {
  funcs : func list;
  globals : string list;
  arrays : array_decl list;
  secrets : string list;
  main : string;
}

let i n = Int n
let v name = Var name
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Rem, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (Land, a, b)
let ( ||: ) a b = Binop (Lor, a, b)
let idx name e = Index (name, e)
let assign name e = Assign (name, e)
let store name ie e = Store (name, ie, e)
let if_ ?(secret = false) cond then_ else_ = If { secret; cond; then_; else_ }
let while_ cond body = While (cond, body)
let for_ var lo hi body = For (var, lo, hi, body)
let ret e = Return e
let call f args = Call (f, args)

module Sset = Set.Make (String)

let rec expr_reads = function
  | Int _ -> Sset.empty
  | Var x -> Sset.singleton x
  | Index (_, e) -> expr_reads e
  | Unop (_, e) -> expr_reads e
  | Binop (_, a, b) -> Sset.union (expr_reads a) (expr_reads b)
  | Call (_, args) ->
    List.fold_left (fun acc e -> Sset.union acc (expr_reads e)) Sset.empty args
  | Select (c, a, b) ->
    Sset.union (expr_reads c) (Sset.union (expr_reads a) (expr_reads b))

let rec expr_has_call = function
  | Int _ | Var _ -> false
  | Index (_, e) | Unop (_, e) -> expr_has_call e
  | Binop (_, a, b) -> expr_has_call a || expr_has_call b
  | Call _ -> true
  | Select (c, a, b) -> expr_has_call c || expr_has_call a || expr_has_call b

let rec stmt_fold f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | Assign _ | Store _ | Expr _ | Return _ -> acc
  | If { then_; else_; _ } -> block_fold f (block_fold f acc then_) else_
  | While (_, body) | For (_, _, _, body) -> block_fold f acc body

and block_fold f acc block = List.fold_left (stmt_fold f) acc block

let block_assigned block =
  block_fold
    (fun acc stmt ->
      match stmt with
      | Assign (x, _) -> Sset.add x acc
      | For (x, _, _, _) -> Sset.add x acc
      | Store _ | If _ | While _ | Expr _ | Return _ -> acc)
    Sset.empty block

let block_reads block =
  block_fold
    (fun acc stmt ->
      let add e = Sset.union acc (expr_reads e) in
      match stmt with
      | Assign (_, e) | Expr e | Return e -> add e
      | Store (_, ie, e) -> Sset.union (add ie) (expr_reads e)
      | If { cond; _ } -> add cond
      | While (cond, _) -> add cond
      | For (_, lo, hi, _) -> Sset.union (add lo) (expr_reads hi))
    Sset.empty block

let block_stored_arrays block =
  block_fold
    (fun acc stmt ->
      match stmt with
      | Store (a, _, _) -> Sset.add a acc
      | Assign _ | If _ | While _ | For _ | Expr _ | Return _ -> acc)
    Sset.empty block

let rec subst_scalar_expr ~old ~fresh = function
  | Int n -> Int n
  | Var x -> Var (if x = old then fresh else x)
  | Index (a, e) -> Index (a, subst_scalar_expr ~old ~fresh e)
  | Unop (op, e) -> Unop (op, subst_scalar_expr ~old ~fresh e)
  | Binop (op, a, b) ->
    Binop (op, subst_scalar_expr ~old ~fresh a, subst_scalar_expr ~old ~fresh b)
  | Call (f, args) -> Call (f, List.map (subst_scalar_expr ~old ~fresh) args)
  | Select (c, a, b) ->
    Select
      ( subst_scalar_expr ~old ~fresh c,
        subst_scalar_expr ~old ~fresh a,
        subst_scalar_expr ~old ~fresh b )

let rec subst_scalar ~old ~fresh block =
  let se = subst_scalar_expr ~old ~fresh in
  let sub_stmt = function
    | Assign (x, e) -> Assign ((if x = old then fresh else x), se e)
    | Store (a, ie, e) -> Store (a, se ie, se e)
    | If { secret; cond; then_; else_ } ->
      If
        {
          secret;
          cond = se cond;
          then_ = subst_scalar ~old ~fresh then_;
          else_ = subst_scalar ~old ~fresh else_;
        }
    | While (cond, body) -> While (se cond, subst_scalar ~old ~fresh body)
    | For (x, lo, hi, body) ->
      For ((if x = old then fresh else x), se lo, se hi, subst_scalar ~old ~fresh body)
    | Expr e -> Expr (se e)
    | Return e -> Return (se e)
  in
  List.map sub_stmt block

let rec subst_array_expr ~old ~fresh = function
  | Int n -> Int n
  | Var x -> Var x
  | Index (a, e) ->
    Index ((if a = old then fresh else a), subst_array_expr ~old ~fresh e)
  | Unop (op, e) -> Unop (op, subst_array_expr ~old ~fresh e)
  | Binop (op, a, b) ->
    Binop (op, subst_array_expr ~old ~fresh a, subst_array_expr ~old ~fresh b)
  | Call (f, args) -> Call (f, List.map (subst_array_expr ~old ~fresh) args)
  | Select (c, a, b) ->
    Select
      ( subst_array_expr ~old ~fresh c,
        subst_array_expr ~old ~fresh a,
        subst_array_expr ~old ~fresh b )

let rec subst_array ~old ~fresh block =
  let se = subst_array_expr ~old ~fresh in
  let sub_stmt = function
    | Assign (x, e) -> Assign (x, se e)
    | Store (a, ie, e) -> Store ((if a = old then fresh else a), se ie, se e)
    | If { secret; cond; then_; else_ } ->
      If
        {
          secret;
          cond = se cond;
          then_ = subst_array ~old ~fresh then_;
          else_ = subst_array ~old ~fresh else_;
        }
    | While (cond, body) -> While (se cond, subst_array ~old ~fresh body)
    | For (x, lo, hi, body) -> For (x, se lo, se hi, subst_array ~old ~fresh body)
    | Expr e -> Expr (se e)
    | Return e -> Return (se e)
  in
  List.map sub_stmt block

let find_func prog name =
  match List.find_opt (fun f -> f.fname = name) prog.funcs with
  | Some f -> f
  | None -> raise Not_found

let validate prog =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let arrays = List.map (fun a -> a.aname) prog.arrays in
  let funcs = List.map (fun f -> (f.fname, List.length f.params)) prog.funcs in
  List.iter
    (fun s ->
      if not (List.mem s prog.globals) then fail "secret %S is not a global" s)
    prog.secrets;
  if not (List.mem_assoc prog.main funcs) then fail "main %S not defined" prog.main;
  if List.assoc prog.main funcs <> 0 then fail "main %S must take no arguments" prog.main;
  let check_func f =
    let scalars =
      Sset.union (Sset.of_list prog.globals)
        (Sset.union (Sset.of_list f.params) (Sset.of_list f.locals))
    in
    let check_scalar x =
      if not (Sset.mem x scalars) then
        fail "function %S: undeclared scalar %S" f.fname x
    in
    let check_array a =
      if not (List.mem a arrays) then
        fail "function %S: undeclared array %S" f.fname a
    in
    let rec check_expr = function
      | Int _ -> ()
      | Var x -> check_scalar x
      | Index (a, e) ->
        check_array a;
        check_expr e
      | Unop (_, e) -> check_expr e
      | Binop (_, a, b) ->
        check_expr a;
        check_expr b
      | Call (g, args) ->
        (match List.assoc_opt g funcs with
         | None -> fail "function %S: call to undefined %S" f.fname g
         | Some arity ->
           if arity <> List.length args then
             fail "function %S: %S expects %d arguments, got %d" f.fname g arity
               (List.length args));
        List.iter check_expr args
      | Select (c, a, b) ->
        check_expr c;
        check_expr a;
        check_expr b
    in
    let rec check_stmt = function
      | Assign (x, e) ->
        check_scalar x;
        check_expr e
      | Store (a, ie, e) ->
        check_array a;
        check_expr ie;
        check_expr e
      | If { cond; then_; else_; _ } ->
        check_expr cond;
        List.iter check_stmt then_;
        List.iter check_stmt else_
      | While (cond, body) ->
        check_expr cond;
        List.iter check_stmt body
      | For (x, lo, hi, body) ->
        check_scalar x;
        check_expr lo;
        check_expr hi;
        List.iter check_stmt body
      | Expr e -> check_expr e
      | Return e -> check_expr e
    in
    List.iter check_stmt f.body
  in
  List.iter check_func prog.funcs

let unop_name = function Neg -> "-" | Lnot -> "!"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Land -> "&&" | Lor -> "||"

let rec pp_expr fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Var x -> Format.fprintf fmt "%s" x
  | Index (a, e) -> Format.fprintf fmt "%s[%a]" a pp_expr e
  | Unop (op, e) -> Format.fprintf fmt "%s(%a)" (unop_name op) pp_expr e
  | Binop (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Call (f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_expr)
      args
  | Select (c, a, b) ->
    Format.fprintf fmt "select(%a, %a, %a)" pp_expr c pp_expr a pp_expr b

let rec pp_stmt indent fmt stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (x, e) -> Format.fprintf fmt "%s%s = %a;@." pad x pp_expr e
  | Store (a, ie, e) ->
    Format.fprintf fmt "%s%s[%a] = %a;@." pad a pp_expr ie pp_expr e
  | If { secret; cond; then_; else_ } ->
    Format.fprintf fmt "%s%sif (%a) {@." pad
      (if secret then "@secret " else "")
      pp_expr cond;
    List.iter (pp_stmt (indent + 2) fmt) then_;
    if else_ <> [] then begin
      Format.fprintf fmt "%s} else {@." pad;
      List.iter (pp_stmt (indent + 2) fmt) else_
    end;
    Format.fprintf fmt "%s}@." pad
  | While (cond, body) ->
    Format.fprintf fmt "%swhile (%a) {@." pad pp_expr cond;
    List.iter (pp_stmt (indent + 2) fmt) body;
    Format.fprintf fmt "%s}@." pad
  | For (x, lo, hi, body) ->
    Format.fprintf fmt "%sfor (%s = %a; %s < %a; %s++) {@." pad x pp_expr lo x
      pp_expr hi x;
    List.iter (pp_stmt (indent + 2) fmt) body;
    Format.fprintf fmt "%s}@." pad
  | Expr e -> Format.fprintf fmt "%s%a;@." pad pp_expr e
  | Return e -> Format.fprintf fmt "%sreturn %a;@." pad pp_expr e

let pp_program fmt prog =
  List.iter (fun g -> Format.fprintf fmt "global %s;@." g) prog.globals;
  List.iter
    (fun a ->
      Format.fprintf fmt "array %s[%d]%s;@." a.aname a.size
        (if a.scratch then " scratch" else ""))
    prog.arrays;
  List.iter (fun s -> Format.fprintf fmt "@@secret %s;@." s) prog.secrets;
  List.iter
    (fun f ->
      Format.fprintf fmt "func %s(%s) locals(%s) {@." f.fname
        (String.concat ", " f.params)
        (String.concat ", " f.locals);
      List.iter (pp_stmt 2 fmt) f.body;
      Format.fprintf fmt "}@.")
    prog.funcs
