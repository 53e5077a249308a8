module Query_parser = Parser
open Xmlkit
open Ast

(* The XQuery evaluator: FLWOR tuple streams, path steps with document-order
   dedup, predicates with focus, quantifiers, constructors, and dispatch of
   the two full-text expressions to the installed handler. *)

let dyn = Context.dynamic_error

let ebv = Value.effective_boolean_value

(* Deep-copy a node tree so constructed elements own their content (XQuery
   constructors copy); the copy is unsealed — the constructor seals it. *)
let rec copy_node n =
  match Node.kind n with
  | Node.Document { uri; _ } -> Node.document ?uri (List.map copy_node (Node.children n))
  | Node.Element { name; _ } ->
      Node.element name
        ~attributes:(List.map copy_node (Node.attributes n))
        (List.map copy_node (Node.children n))
  | Node.Attribute { aname; avalue } -> Node.attribute aname avalue
  | Node.Text { content } -> Node.text content
  | Node.Comment c -> Node.comment c
  | Node.Pi { target; pcontent } -> Node.pi target pcontent

let is_whitespace s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* Builtins whose value is always a single boolean. *)
let boolean_builtins =
  [
    "true"; "false"; "not"; "boolean"; "empty"; "exists"; "contains";
    "starts-with"; "ends-with"; "matches"; "doc-available";
  ]

(* A conservative test that a predicate selects the same nodes whatever its
   context position and size: its value is always a boolean or a node
   sequence, never a number, and it calls neither position() nor last()
   anywhere.  A call counts as boolean only when it resolves to one of the
   boolean builtins: a prolog function may shadow a builtin's name. *)
let non_positional ctx pred =
  let always_boolean =
    match pred with
    | Ft_contains _ | General_cmp _ | Value_cmp _ | Node_is _ | Quantified _
    | And _ | Or _
    | Path (_, _ :: _) ->
        true
    | Call (name, args) -> (
        match Context.find_function ctx name (List.length args) with
        | Some (Context.Builtin _) ->
            List.mem (Context.strip_fn name) boolean_builtins
        | Some (Context.User _) | None -> false)
    | _ -> false
  in
  let reads_position = function
    | Call (name, []) -> (
        match Context.strip_fn name with
        | "position" | "last" -> true
        | _ -> false)
    | _ -> false
  in
  always_boolean && not (Ast.exists_expr reads_position pred)

(* A selection whose embedded expressions are all literals or references
   to variables other than [except] means the same for every context
   node: one handler call may evaluate it for a whole sequence of nodes
   ({!Context.ft_handler} [handle_each]). *)
let node_independent ?except selection =
  not
    (Ast.exists_in_selection
       (function
         | Literal_string _ | Literal_integer _ | Literal_double _ -> false
         | Var v -> Some v = except
         | _ -> true)
       selection)

(* What evaluating "ftcontains" or "ft:score" and its context expression
   ticks for one node: the batched dispatches below tick the same. *)
let per_node_ticks g () =
  Limits.tick g;
  Limits.tick g

let rec eval (ctx : Context.t) (e : expr) : Value.t =
  Limits.tick ctx.Context.governor;
  match e with
  | Literal_string s -> Value.string s
  | Literal_integer i -> Value.integer i
  | Literal_double d -> Value.double d
  | Var v -> Context.lookup_var ctx v
  | Context_item ->
      let f = Context.focus_exn ctx "context item expression '.'" in
      [ f.Context.item ]
  | Sequence es -> List.concat_map (eval ctx) es
  | Range (a, b) -> (
      match (eval ctx a, eval ctx b) with
      | [], _ | _, [] -> []
      | va, vb ->
          let lo = int_of_float (Value.to_number va)
          and hi = int_of_float (Value.to_number vb) in
          if lo > hi then []
          else begin
            Limits.check_matches ctx.Context.governor (hi - lo + 1);
            List.init (hi - lo + 1) (fun i -> Value.Integer (lo + i))
          end)
  | If (c, t, f) -> if ebv (eval ctx c) then eval ctx t else eval ctx f
  | Flwor (clauses, body) -> eval_flwor ctx clauses body
  | Quantified (q, bindings, cond) -> eval_quantified ctx q bindings cond
  | Or (a, b) -> Value.boolean (ebv (eval ctx a) || ebv (eval ctx b))
  | And (a, b) -> Value.boolean (ebv (eval ctx a) && ebv (eval ctx b))
  | General_cmp (op, a, b) ->
      Value.boolean
        (Value.general_compare (cmp_op op) (eval ctx a) (eval ctx b))
  | Value_cmp (op, a, b) -> (
      match Value.value_compare (cmp_op op) (eval ctx a) (eval ctx b) with
      | None -> Value.empty
      | Some r -> Value.boolean r)
  | Node_is (a, b) -> (
      match (eval ctx a, eval ctx b) with
      | [], _ | _, [] -> Value.empty
      | [ Value.Node x ], [ Value.Node y ] -> Value.boolean (Node.equal x y)
      | _ -> dyn "'is' requires single nodes")
  | Arith (op, a, b) -> Value.arith (arith_op op) (eval ctx a) (eval ctx b)
  | Neg a -> (
      match eval ctx a with
      | [] -> []
      | v -> Value.double (-.Value.to_number v))
  | Union (a, b) ->
      Value.document_order_dedup (eval ctx a @ eval ctx b)
  | Root ->
      let f = Context.focus_exn ctx "leading '/'" in
      (match f.Context.item with
      | Value.Node n -> Value.of_nodes [ Node.root n ]
      | _ -> dyn "leading '/': context item is not a node")
  | Path (root, steps) -> eval_path ctx root steps
  | Filter (primary, preds) ->
      let v = eval ctx primary in
      List.fold_left (eval_predicate ctx) v preds
  | Call (name, args) -> eval_call ctx name args
  | Elem_constructor { name; attrs; content } ->
      eval_constructor ctx name attrs content
  | Computed_element (name_e, content_e) ->
      let name = Value.to_string_single (Value.atomize (eval ctx name_e)) in
      eval_constructor ctx name [] [ Const_expr content_e ]
  | Computed_attribute (name_e, content_e) ->
      let name = Value.to_string_single (Value.atomize (eval ctx name_e)) in
      let value =
        String.concat " "
          (List.map Value.item_to_string (Value.atomize (eval ctx content_e)))
      in
      Value.of_nodes [ Node.seal (Node.attribute name value) ]
  | Computed_text content_e ->
      let value =
        String.concat " "
          (List.map Value.item_to_string (Value.atomize (eval ctx content_e)))
      in
      Value.of_nodes [ Node.seal (Node.text value) ]
  | Ft_contains { context; selection; ignore_nodes } -> (
      match ctx.Context.ft with
      | None ->
          Errors.raise_error Errors.GTLX0005
            "ftcontains: no full-text handler installed"
      | Some h ->
          let nodes = eval ctx context in
          let ignored = Option.map (eval ctx) ignore_nodes in
          Limits.count_ft_dispatch ctx.Context.governor;
          h.Context.handle_contains ~eval ctx nodes selection ignored)
  | Ft_score (context, selection) -> (
      match ctx.Context.ft with
      | None ->
          Errors.raise_error Errors.GTLX0005
            "ft:score: no full-text handler installed"
      | Some h ->
          let nodes = eval ctx context in
          Limits.count_ft_dispatch ctx.Context.governor;
          h.Context.handle_score ~eval ctx nodes selection)

and cmp_op : comparison_op -> Value.comparison = function
  | Eq -> Value.Eq
  | Ne -> Value.Ne
  | Lt -> Value.Lt
  | Le -> Value.Le
  | Gt -> Value.Gt
  | Ge -> Value.Ge

and arith_op : arith_op -> Value.arith = function
  | Add -> Value.Add
  | Sub -> Value.Sub
  | Mul -> Value.Mul
  | Div -> Value.Div
  | Idiv -> Value.Idiv
  | Mod -> Value.Mod

(* --- FLWOR --- *)

and eval_flwor ctx clauses body =
  let governor = ctx.Context.governor in
  (* A tuple is a context with additional variable bindings. *)
  let apply_clause tuples clause =
    match clause with
    | For_clause { var; positional; source } ->
        (* for-clauses multiply the tuple stream — the FLWOR cross-product
           failure mode.  Check the running total as each binding sequence
           arrives, before the product is materialized any further. *)
        let total = ref 0 in
        List.concat_map
          (fun tctx ->
            let items = eval tctx source in
            total := !total + List.length items;
            Limits.check_matches governor !total;
            List.mapi
              (fun i item ->
                let tctx = Context.bind_var tctx var [ item ] in
                match positional with
                | None -> tctx
                | Some pvar ->
                    Context.bind_var tctx pvar (Value.integer (i + 1)))
              items)
          tuples
    | Let_clause { var; value } ->
        List.map (fun tctx -> Context.bind_var tctx var (eval tctx value)) tuples
    | Where_clause cond ->
        List.filter (fun tctx -> ebv (eval tctx cond)) tuples
    | Order_by keys ->
        let keyed =
          List.map
            (fun tctx ->
              let ks =
                List.map
                  (fun (ke, desc) ->
                    let v = Value.atomize (eval tctx ke) in
                    (v, desc))
                  keys
              in
              (ks, tctx))
            tuples
        in
        let compare_keys (ka, _) (kb, _) =
          let rec go = function
            | [] -> 0
            | ((va, desc), (vb, _)) :: rest ->
                let c =
                  match (va, vb) with
                  | [], [] -> 0
                  | [], _ -> -1 (* empty least *)
                  | _, [] -> 1
                  | a :: _, b :: _ -> Value.compare_items a b
                in
                let c = if desc then -c else c in
                if c <> 0 then c else go rest
          in
          go (List.combine ka kb)
        in
        List.map snd (List.stable_sort compare_keys keyed)
  in
  (* cross-product growth across for-clauses is the FLWOR failure mode:
     bound every intermediate tuple stream *)
  let apply_clause tuples clause =
    let tuples = apply_clause tuples clause in
    Limits.check_matches ctx.Context.governor (List.length tuples);
    tuples
  in
  (* "for $v in E let $s := ft:score($v, S)": score all of E's items in
     one handler call per incoming tuple, then bind $v and $s per item *)
  let scored_for h ~var ~score_var source selection tuples =
    let total = ref 0 in
    List.concat_map
      (fun tctx ->
        let items = eval tctx source in
        total := !total + List.length items;
        Limits.check_matches governor !total;
        let scores =
          match items with
          | [] -> []
          | _ ->
              Limits.count_ft_dispatch governor;
              h.Context.handle_each ~eval tctx
                ~per_node:(per_node_ticks governor) items selection
                Context.Score
        in
        List.map2
          (fun item score ->
            Context.bind_var
              (Context.bind_var tctx var [ item ])
              score_var [ score ])
          items scores)
      tuples
  in
  let rec apply_clauses tuples = function
    | [] -> tuples
    | For_clause { var; positional = None; source }
      :: Let_clause
           { var = score_var; value = Ft_score (Var v, selection) }
      :: rest
      when v = var
           && Option.is_some ctx.Context.ft
           && node_independent ~except:var selection ->
        let h = Option.get ctx.Context.ft in
        let tuples = scored_for h ~var ~score_var source selection tuples in
        Limits.check_matches governor (List.length tuples);
        apply_clauses tuples rest
    | clause :: rest -> apply_clauses (apply_clause tuples clause) rest
  in
  let tuples = apply_clauses [ ctx ] clauses in
  List.concat_map (fun tctx -> eval tctx body) tuples

and eval_quantified ctx q bindings cond =
  let rec go ctx = function
    | [] -> ebv (eval ctx cond)
    | (var, source) :: rest ->
        let items = eval ctx source in
        let test item = go (Context.bind_var ctx var [ item ]) rest in
        (match q with
        | Some_q -> List.exists test items
        | Every_q -> List.for_all test items)
  in
  Value.boolean (go ctx bindings)

(* --- paths --- *)

and eval_path ctx root steps =
  let initial =
    match root with
    | None ->
        let f = Context.focus_exn ctx "relative path" in
        [ f.Context.item ]
    | Some Root -> eval ctx Root
    | Some e -> eval ctx e
  in
  let rec all_non_positional = function
    | [] -> true
    | p :: rest -> non_positional ctx p && all_non_positional rest
  in
  let apply_step input axis (step : step) =
    let nodes = Value.nodes_of "path step" input in
    let select n = Value.of_nodes (Axes.step_nodes axis step.test n) in
    let filter selected =
      List.fold_left (eval_predicate ctx) selected step.predicates
    in
    if all_non_positional step.predicates then
      (* no predicate sees a node's position among its context node's
         selection: filter the step's whole selection at once, built in
         one pass from the last context node back *)
      let items = Axes.step_items axis step.test in
      filter (Value.document_order_dedup (List.fold_right items nodes []))
    else
      let results = List.concat_map (fun n -> filter (select n)) nodes in
      if Value.is_all_nodes results then Value.document_order_dedup results
      else results
  in
  (* "//T[p]" is descendant-or-self::node()/child::T[p]: the same nodes as
     descendant::T[p] unless some p sees its position among T's siblings. *)
  let rec go input = function
    | [] -> input
    | { axis = Descendant_or_self; test = Kind_node; predicates = [] }
      :: ({ axis = Child; predicates; _ } as next)
      :: rest
      when all_non_positional predicates ->
        go (apply_step input Descendant next) rest
    | step :: rest -> go (apply_step input step.axis step) rest
  in
  go initial steps

(* A predicate: numeric value selects by position, otherwise EBV filters.
   ". ftcontains S" over a node-independent S is one handler call for the
   whole input. *)
and eval_predicate ctx (input : Value.t) pred =
  match (pred, ctx.Context.ft, input) with
  | _, _, [] -> []
  | ( Ft_contains { context = Context_item; selection; ignore_nodes = None },
      Some h,
      _ )
    when node_independent selection ->
      let g = ctx.Context.governor in
      Limits.count_ft_dispatch g;
      let verdicts =
        h.Context.handle_each ~eval ctx ~per_node:(per_node_ticks g) input
          selection Context.Contains
      in
      let rec keep items verdicts =
        match (items, verdicts) with
        | item :: items, verdict :: verdicts ->
            if ebv [ verdict ] then item :: keep items verdicts
            else keep items verdicts
        | [], [] -> []
        | _ -> invalid_arg "handle_each: one verdict per node"
      in
      keep input verdicts
  | _ ->
      let size = List.length input in
      List.filteri
        (fun i item ->
          let fctx = Context.with_focus ctx item ~position:(i + 1) ~size in
          match eval fctx pred with
          | [ Value.Integer k ] -> k = i + 1
          | [ Value.Double d ] -> d = float_of_int (i + 1)
          | v -> ebv v)
        input

(* --- function calls --- *)

and eval_call ctx name args =
  match Context.find_function ctx name (List.length args) with
  | Some (Context.Builtin impl) -> impl ctx (List.map (eval ctx) args)
  | Some (Context.User def) ->
      let values = List.map (eval ctx) args in
      let call_ctx =
        List.fold_left2
          (fun c param v -> Context.bind_var c param v)
          { ctx with Context.vars = ctx.Context.globals; focus = None }
          def.params values
      in
      let g = ctx.Context.governor in
      Limits.enter_call g;
      Fun.protect
        ~finally:(fun () -> Limits.exit_call g)
        (fun () -> eval call_ctx def.body)
  | None ->
      Errors.raise_error Errors.XPST0017 "unknown function %s/%d" name
        (List.length args)

(* --- constructors --- *)

and eval_constructor ctx name attrs content =
  let attr_value parts =
    String.concat ""
      (List.map
         (function
           | Const_text s -> s
           | Const_expr e ->
               String.concat " "
                 (List.map Value.item_to_string (Value.atomize (eval ctx e))))
         parts)
  in
  let literal_attributes =
    List.map (fun (aname, parts) -> Node.attribute aname (attr_value parts)) attrs
  in
  (* attribute nodes appearing in evaluated content become attributes of the
     constructed element (XQuery 3.7.1.3) *)
  let content_attributes = ref [] in
  let children =
    List.concat_map
      (function
        | Const_text s ->
            (* default boundary-space: strip whitespace-only literal text *)
            if is_whitespace s then [] else [ Node.text s ]
        | Const_expr e ->
            let v = eval ctx e in
            let buf = Buffer.create 16 in
            let flush acc =
              if Buffer.length buf > 0 then begin
                let t = Node.text (Buffer.contents buf) in
                Buffer.clear buf;
                t :: acc
              end
              else acc
            in
            let acc =
              List.fold_left
                (fun acc item ->
                  match item with
                  | Value.Node n -> (
                      match Node.kind n with
                      | Node.Document _ ->
                          List.rev_append
                            (List.rev_map copy_node (Node.children n))
                            (flush acc)
                      | Node.Attribute _ ->
                          content_attributes := copy_node n :: !content_attributes;
                          acc
                      | _ -> copy_node n :: flush acc)
                  | atomic ->
                      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
                      Buffer.add_string buf (Value.item_to_string atomic);
                      acc)
                [] v
            in
            List.rev (flush acc))
      content
  in
  let attributes = literal_attributes @ List.rev !content_attributes in
  let element = Node.element ~attributes name children in
  Value.of_nodes [ Node.seal element ]

(* --- query entry points --- *)

let setup_context ?resolve_doc ?ft ?governor ?(prepare = Fun.id) (q : query) =
  let ctx = Context.create ?resolve_doc ?ft ?governor () in
  Functions.register ctx;
  (* the prolog's initializers see what [prepare] installs *)
  let ctx = prepare ctx in
  List.iter (Context.register_function ctx) q.functions;
  List.fold_left
    (fun c (name, e) -> Context.bind_global c name (eval c e))
    ctx q.variables

let load_module ctx (m : query) =
  List.iter (Context.register_function ctx) m.functions;
  List.fold_left
    (fun c (name, e) -> Context.bind_global c name (eval c e))
    ctx m.variables

let run ?resolve_doc ?ft ?governor ?context_node (q : query) =
  let prepare ctx =
    match context_node with
    | Some n -> Context.with_focus ctx (Value.Node n) ~position:1 ~size:1
    | None -> ctx
  in
  eval (setup_context ?resolve_doc ?ft ?governor ~prepare q) q.body

let run_string ?resolve_doc ?ft ?governor ?context_node src =
  run ?resolve_doc ?ft ?governor ?context_node (Query_parser.parse_query src)
