"""Generic relational operators demonstrated on the star-schema tables.

The engine's general data-processing surface (grouped aggregates,
broadcast hash joins, sort/limit) — the shapes behind SURVEY.md §2.5
G1/G4 and §2.4 J1/J5, expressed on the driver's TPC-H-ish tables.

Gate-exactness: money sums are computed in integer cents
(round(x*100) → int64) so aggregation order cannot perturb a float
sum; consumers divide by 100.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum


def _read(sf_dir: str, name: str, columns=None):
    return ray.data.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def q_lineitem_agg(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped grouped aggregate: per (returnflag, linestatus)
    integer-exact sums + counts."""

    def to_cents(batch: pa.Table) -> pa.Table:
        # DuckDB round() is half-away-from-zero; match it (pc.round
        # defaults to half-even, which differs on exact .5 like 12.5;
        # pyarrow's name for half-away-from-zero is half_towards_infinity)
        away = "half_towards_infinity"
        qty = pc.cast(pc.round(batch["l_quantity"], round_mode=away), pa.int64())
        price_c = pc.cast(
            pc.round(pc.multiply(batch["l_extendedprice"], pa.scalar(100.0)), round_mode=away), pa.int64()
        )
        disc_c = pc.cast(
            pc.round(pc.multiply(batch["l_discount"], pa.scalar(100.0)), round_mode=away), pa.int64()
        )
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": qty,
                "price_cents": price_c,
                "disc_cents": disc_c,
            }
        )

    out = (
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])
        .map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("disc_cents", alias_name="sum_disc_cents"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ["sum_qty", "sum_price_cents", "sum_disc_cents", "count_order"]:
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def _cust_nation_arrays(sf_dir: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted custkeys, aligned nationkeys, nation names indexed by
    nationkey) — the broadcast small-side of the customer⋈nation join
    as three numpy arrays, so per-batch resolution is one vectorized
    ``searchsorted`` + two gathers instead of per-row dict lookups."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    ck = cust["c_custkey"].to_numpy(dtype=np.int64)
    order = np.argsort(ck)
    ckeys = ck[order]
    cnk = cust["c_nationkey"].to_numpy(dtype=np.int64)[order]
    names = np.empty(int(nation["n_nationkey"].max()) + 1, dtype=object)
    names[nation["n_nationkey"].to_numpy(dtype=np.int64)] = nation["n_name"].to_numpy()
    return ckeys, cnk, names


def _nation_of(ckeys: np.ndarray, cnk: np.ndarray, ck: np.ndarray) -> np.ndarray:
    """Nationkey of every custkey in ``ck`` through the sorted broadcast
    small side. A foreign-key gap — an order whose custkey has no
    customer row — raises ValueError naming the missing custkeys
    instead of indexing past the end (a key above the range) or
    silently taking a neighbour's nation (a gap inside it)."""
    pos = np.searchsorted(ckeys, ck)
    ok = pos < ckeys.size
    ok[ok] = ckeys[pos[ok]] == ck[ok]
    if not ok.all():
        missing = np.unique(ck[~ok])
        raise ValueError(
            f"customer foreign-key gap: {missing.size} custkey(s) have no "
            f"customer row: {missing[:20].tolist()}"
        )
    return cnk[pos]


def q_orders_by_nation(sf_dir: str) -> pa.Table:
    """Broadcast hash join: orders ⋈ customer ⋈ nation → order count +
    total price (cents) per nation. customer/nation are the small
    sides: ray.put once, dict-lookup per batch — never a shuffle join
    (SURVEY.md §2.4 J1/J5 pattern)."""
    maps_ref = ray.put(_cust_nation_arrays(sf_dir))

    class JoinOrders:
        def __init__(self, ref):
            # sorted custkeys + aligned nationkeys + names-by-nationkey:
            # the broadcast join resolves with ONE vectorized
            # searchsorted per batch, no per-row dict lookups
            self.ckeys, self.cnk, self.names = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            nk = _nation_of(self.ckeys, self.cnk, ck)
            price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "n_name": pa.array(self.names[nk], type=pa.string()),
                    # floor(x+0.5) = round-half-away for positive prices (DuckDB round())
                    "price_cents": pa.array(
                        np.floor(price * 100.0 + 0.5).astype(np.int64), type=pa.int64()
                    ),
                }
            )

    out = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(JoinOrders, fn_constructor_args=(maps_ref,), batch_format="pyarrow", concurrency=2)
        .groupby("n_name")
        .aggregate(Count(alias_name="n_orders"), Sum("price_cents", alias_name="total_price_cents"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_price_cents"] = out["total_price_cents"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def q_top_parts_by_size(sf_dir: str) -> pa.Table:
    """Sort + limit: 25 largest parts by (p_size desc, p_partkey asc)."""
    out = (
        _read(sf_dir, "part", ["p_partkey", "p_name", "p_size"])
        .sort(["p_size", "p_partkey"], descending=[True, False])
        .limit(25)
        .to_pandas()
    )
    out["p_partkey"] = out["p_partkey"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


TOPK_PER_GROUP = 5


def q_topk_per_group(sf_dir: str) -> pa.Table:
    """Top-k PER GROUP (k largest documents per lang by (n_chars desc,
    doc_id asc)) with the scale-correct combiner: each batch emits only
    its LOCAL top-k per group (bounded: groups × k rows leave every
    batch regardless of batch size), and the final per-group top-k runs
    over those partials — the shuffle moves O(blocks · groups · k)
    rows, never the table."""

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
            .groupby("lang", sort=False)
            .head(TOPK_PER_GROUP)
        )

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        out = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(TOPK_PER_GROUP)
        out = out.assign(rank=np.arange(len(out), dtype=np.int64))
        return out

    final_topk.__name__ = "final_topk"
    out = (
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(local_topk, batch_format="pandas")
        .groupby("lang")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values(["lang", "rank"]).reset_index(drop=True), preserve_index=False
    )


REV_PARTITIONS = 8


def q_revenue_by_nation(sf_dir: str) -> pa.Table:
    """TPC-H-Q5-shaped multi-join: revenue per customer nation,
    lineitem ⨝ orders as a DISTRIBUTED hash join (both are fact
    tables — neither side ever broadcasts), then customer→nation via
    broadcast dimension maps (the dims are bounded relative to the
    facts — the standard star-schema partitioning assumption), then
    bounded per-batch partial sums.

    Revenue is integer-exact: round(price·100) · (100 − round(disc·100))
    in 10⁻⁴-dollar units, so aggregation order cannot perturb the gate
    hash (the module's cents discipline)."""
    from ..collect import collect_table

    def li_project(t: pa.Table) -> pa.Table:
        price_c = np.floor(t["l_extendedprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        disc_c = np.floor(t["l_discount"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "rev_e4": pa.array(price_c * (100 - disc_c), type=pa.int64()),
            }
        )

    def ord_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_project, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(ord_project, batch_format="pyarrow")
        .repartition(REV_PARTITIONS)  # Ray 2.49 empty-block join hazard (joins.py)
    )
    joined = li.join(
        orders, join_type="inner", num_partitions=REV_PARTITIONS, on=("l_orderkey",)
    )

    maps_ref = ray.put(_cust_nation_arrays(sf_dir))

    def partial(t: pa.Table) -> pa.Table:
        # vectorized broadcast join (searchsorted) + per-nationkey
        # integer scatter-add — the per-batch combiner stays a
        # |nations|-row partial, no pandas conversion, no row loop
        ckeys, cnk, names = ray.get(maps_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nk = _nation_of(ckeys, cnk, ck)
        rev = t["rev_e4"].to_numpy(zero_copy_only=False).astype(np.int64)
        acc = np.zeros(names.size, dtype=np.int64)
        np.add.at(acc, nk, rev)
        cnt = np.bincount(nk, minlength=names.size)
        hit = np.flatnonzero(cnt)
        return pa.table(
            {
                "nation": pa.array(names[hit], type=pa.string()),
                "revenue_e4": pa.array(acc[hit], type=pa.int64()),
                "n_items": pa.array(cnt[hit].astype(np.int64), type=pa.int64()),
            }
        )

    empty = pa.schema(
        [("nation", pa.string()), ("revenue_e4", pa.int64()), ("n_items", pa.int64())]
    )
    parts = collect_table(joined.map_batches(partial, batch_format="pyarrow"), empty)
    out = (
        parts.to_pandas()
        .groupby("nation", as_index=False)[["revenue_e4", "n_items"]]
        .sum()
        .sort_values("nation")
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "nation": pa.array(out["nation"], type=pa.string()),
            "revenue_e4": pa.array(out["revenue_e4"].astype(np.int64), type=pa.int64()),
            "n_items": pa.array(out["n_items"].astype(np.int64), type=pa.int64()),
        }
    )


Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-07-01"
Q3_K = 10


def q_top_unshipped_orders(sf_dir: str) -> pa.Table:
    """TPC-H-Q3-shaped: top-10 orders by outstanding revenue — orders
    placed before the cutoff by customers in one market segment, summed
    over lineitems not yet shipped at the cutoff.

    Scale shape: lineitem ⨝ orders is the DISTRIBUTED hash join on
    l_orderkey (both fact tables; revenue_by_nation's pattern); the
    segment-filtered customer keyset broadcasts once via ``ray.put``
    (the dim-side filter — above ``cfg.broadcast_limit`` this would
    route through joins.key_set_filter like the dedup paths). After the
    keyed groupby-sum (one row per surviving order), each batch emits
    only its LOCAL top-10, so the driver merges O(blocks · 10) rows."""
    from ..collect import collect_table

    cutoff_us = int(np.datetime64(Q3_CUTOFF, "us").astype(np.int64))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_keys = pa.array(
        np.sort(cust.loc[cust["c_mktsegment"] == Q3_SEGMENT, "c_custkey"].to_numpy(np.int64)),
        type=pa.int64(),
    )
    keys_ref = ray.put(seg_keys)

    def ord_project(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        date_us = pc.cast(t["o_orderdate"], pa.int64())
        mask = pc.and_(
            pc.less(date_us, pa.scalar(cutoff_us, type=pa.int64())),
            pc.is_in(pc.cast(t["o_custkey"], pa.int64()), value_set=ks),
        )
        t = t.filter(mask)
        return pa.table(
            {
                "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_orderdate": t["o_orderdate"],
                "o_orderpriority": t["o_orderpriority"],
            }
        )

    def li_project(t: pa.Table) -> pa.Table:
        ship_us = pc.cast(t["l_shipdate"], pa.int64())
        t = t.filter(pc.greater(ship_us, pa.scalar(cutoff_us, type=pa.int64())))
        price_c = np.floor(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        disc_c = np.floor(t["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "rev_e4": pa.array(price_c * (100 - disc_c), type=pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]).map_batches(
        li_project, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
        .map_batches(ord_project, batch_format="pyarrow")
        .repartition(REV_PARTITIONS)  # Ray 2.49 empty-block join hazard (joins.py)
    )
    joined = li.join(orders, join_type="inner", num_partitions=REV_PARTITIONS, on=("l_orderkey",))

    agg = joined.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"]).aggregate(
        Sum("rev_e4", alias_name="revenue_e4")
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_e4", "o_orderdate", "l_orderkey"], ascending=[False, True, True]
        ).head(Q3_K)

    empty = pa.schema(
        [
            ("l_orderkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("o_orderpriority", pa.string()),
            ("revenue_e4", pa.int64()),
        ]
    )
    parts = collect_table(agg.map_batches(local_topk, batch_format="pandas"), empty)
    out = (
        parts.to_pandas()
        .sort_values(["revenue_e4", "o_orderdate", "l_orderkey"], ascending=[False, True, True])
        .head(Q3_K)
        .reset_index(drop=True)
    )
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["revenue_e4"] = out["revenue_e4"].astype("int64")
    return pa.Table.from_pandas(
        out[["l_orderkey", "revenue_e4", "o_orderdate", "o_orderpriority"]], preserve_index=False
    )


Q10_START = "1997-01-01"
Q10_END = "1997-04-01"
Q10_K = 20


def q_returned_revenue(sf_dir: str) -> pa.Table:
    """TPC-H-Q10-shaped: top-``Q10_K`` customers by revenue lost to
    returned items (``l_returnflag = 'R'``) for orders placed in one
    quarter — the churn-analysis join.

    Scale shape: lineitem(filtered R) ⨝ orders(filtered quarter) is
    the DISTRIBUTED hash join on l_orderkey (both fact tables);
    groupby(o_custkey).sum is one bounded row per customer; each batch
    then emits only its LOCAL top-K so the driver merges
    O(blocks · K) rows, and the final ≤K winners hydrate name /
    acctbal / nation from the broadcast-scale dimension tables —
    hydration AFTER the top-k, never before (no wide row ever rides
    the shuffle). Revenue uses the module's integer 10⁻⁴-dollar
    discipline so aggregation order cannot perturb the gate hash."""
    from ..collect import collect_table

    start_us = int(np.datetime64(Q10_START, "us").astype(np.int64))
    end_us = int(np.datetime64(Q10_END, "us").astype(np.int64))

    def li_project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], pa.scalar("R")))
        price_c = np.floor(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        disc_c = np.floor(t["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "rev_e4": pa.array(price_c * (100 - disc_c), type=pa.int64()),
            }
        )

    def ord_project(t: pa.Table) -> pa.Table:
        date_us = pc.cast(t["o_orderdate"], pa.int64())
        t = t.filter(
            pc.and_(
                pc.greater_equal(date_us, pa.scalar(start_us, type=pa.int64())),
                pc.less(date_us, pa.scalar(end_us, type=pa.int64())),
            )
        )
        return pa.table(
            {
                "l_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"]).map_batches(
        li_project, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = (
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(ord_project, batch_format="pyarrow")
        .repartition(REV_PARTITIONS)  # Ray 2.49 empty-block join hazard (joins.py)
    )
    joined = li.join(orders, join_type="inner", num_partitions=REV_PARTITIONS, on=("l_orderkey",))
    agg = joined.groupby("o_custkey").aggregate(Sum("rev_e4", alias_name="revenue_e4"))

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_e4", "o_custkey"], ascending=[False, True]
        ).head(Q10_K)

    empty = pa.schema([("o_custkey", pa.int64()), ("revenue_e4", pa.int64())])
    parts = collect_table(agg.map_batches(local_topk, batch_format="pandas"), empty)
    top = (
        parts.to_pandas()
        .sort_values(["revenue_e4", "o_custkey"], ascending=[False, True])
        .head(Q10_K)
        .reset_index(drop=True)
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust["c_acctbal_c"] = np.floor(cust["c_acctbal"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    top = (
        top.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
    )
    top = top.sort_values(["revenue_e4", "o_custkey"], ascending=[False, True]).reset_index(drop=True)
    top["rank"] = np.arange(len(top), dtype=np.int64)
    out = top[["c_custkey", "c_name", "revenue_e4", "c_acctbal_c", "n_name", "rank"]].copy()
    for c in ("c_custkey", "revenue_e4", "c_acctbal_c", "rank"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


LAPSED_CUTOFF = "2001-01-01"
ANTI_PARTITIONS = 8


def q_lapsed_customers(sf_dir: str) -> pa.Table:
    """Distributed ANTI-JOIN as a first-class gate: customers with no
    order on/after the cutoff (TPC-H-Q22 shape).

    Deliberately exercises ``joins.anti_join`` — the hash-partitioned
    NOT-IN path every dedup/seen-filter falls back to above
    ``broadcast_limit`` — as a public relational surface: the recent
    orderer keyset shuffles as a Dataset (duplicates fine, never
    collected to the driver), so no single process ever holds it."""
    from ..joins import anti_join

    cutoff_us = int(np.datetime64(LAPSED_CUTOFF, "us").astype(np.int64))

    def recent_keys(t: pa.Table) -> pa.Table:
        date_us = pc.cast(t["o_orderdate"], pa.int64())
        t = t.filter(pc.greater_equal(date_us, pa.scalar(cutoff_us, type=pa.int64())))
        return pa.table({"c_custkey": pc.cast(t["o_custkey"], pa.int64())})

    keys = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        recent_keys, batch_format="pyarrow", zero_copy_batch=True
    )

    def cust_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                "c_name": t["c_name"],
                "c_mktsegment": t["c_mktsegment"],
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"]).map_batches(
        cust_project, batch_format="pyarrow", zero_copy_batch=True
    )
    out = anti_join(cust, keys, on="c_custkey", num_partitions=ANTI_PARTITIONS).to_pandas()
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values("c_custkey").reset_index(drop=True), preserve_index=False
    )


Q13_EXCLUDE = "1-URGENT"  # the Q13 "special orders" exclusion analogue


def q_custdist(sf_dir: str) -> pa.Table:
    """TPC-H-Q13-shaped customer distribution: how many customers
    placed exactly N (non-excluded) orders — INCLUDING zero-order
    customers, the left-outer-join semantics.

    Ray-Data shape: the LEFT OUTER JOIN + GROUP BY is re-expressed as
    a union of contributions — each customer emits (c_custkey, 0) and
    each qualifying order batch emits per-batch PARTIAL (c_custkey,
    count) rows — followed by one groupby(c_custkey).sum. No join at
    all: the only shuffle carries ≤ |customers| + |order batches ×
    distinct customers per batch| narrow rows, and zero-order
    customers fall out naturally from their 0 contribution. A second
    combiner pass (per-batch count by order-count, then a tiny
    groupby) yields the distribution without the per-customer table
    ever reaching the driver."""

    def order_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["o_orderpriority"], pa.scalar(Q13_EXCLUDE)))
        g = t.group_by("o_custkey").aggregate([("o_orderkey", "count")])
        return pa.table(
            {
                "c_custkey": pc.cast(g["o_custkey"], pa.int64()),
                "n": pc.cast(g["o_orderkey_count"], pa.int64()),
            }
        )

    def cust_zero(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
                "n": pa.array(np.zeros(len(t), dtype=np.int64)),
            }
        )

    contrib = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        cust_zero, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderpriority"]).map_batches(
            order_partial, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    per_cust = contrib.groupby("c_custkey").sum("n")

    def dist_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("sum(n)").aggregate([("c_custkey", "count")])
        return pa.table(
            {
                "c_count": pc.cast(g["sum(n)"], pa.int64()),
                "part": pc.cast(g["c_custkey_count"], pa.int64()),
            }
        )

    out = (
        per_cust.map_batches(dist_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_count")
        .sum("part")
        .to_pandas()
    )
    out = out.rename(columns={"sum(part)": "custdist"})
    out["c_count"] = out["c_count"].astype("int64")
    out["custdist"] = out["custdist"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values(["custdist", "c_count"], ascending=False).reset_index(drop=True),
        preserve_index=False,
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
PIVOT_BUCKETS = 64


def q_event_pivot(sf_dir: str) -> pa.Table:
    """PIVOT: one row per user with a count column per event type.
    Scale shape: per-batch partial (user, type) counts bound what
    leaves each batch; the shuffle groups by a coarsened bucket key
    (user_id % 64 — thousands of tiny Ray groups cost ~1 ms each) and
    the in-bucket pandas pivot is exact. Unknown event types would be
    dropped silently, so the partial ASSERTS the closed type set."""

    def partial_counts(batch: pa.Table) -> pa.Table:
        # composite-key factorize + one np.unique — no pandas block
        et_uniq, et_inv = np.unique(
            batch["event_type"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        unknown = set(et_uniq) - set(EVENT_TYPES)
        assert not unknown, f"unexpected event types: {unknown}"
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        key, cnt = np.unique(uid * np.int64(len(et_uniq)) + et_inv, return_counts=True)
        out_uid = key // len(et_uniq)
        return pa.table(
            {
                "user_id": pa.array(out_uid, type=pa.int64()),
                "event_type": pa.array(et_uniq[key % len(et_uniq)], type=pa.string()),
                "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
                "bucket": pa.array(out_uid % PIVOT_BUCKETS, type=pa.int64()),
            }
        )

    def bucket_pivot(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(["user_id", "event_type"], as_index=False)["cnt"].sum()
        wide = tot.pivot_table(index="user_id", columns="event_type",
                               values="cnt", fill_value=0, aggfunc="sum")
        wide = wide.reindex(columns=list(EVENT_TYPES), fill_value=0).astype("int64")
        wide.columns = [f"n_{c}" for c in wide.columns]
        wide = wide.reset_index()
        wide["user_id"] = wide["user_id"].astype("int64")
        wide["ukey"] = "u:" + wide["user_id"].astype(str)
        return wide

    bucket_pivot.__name__ = "bucket_pivot"
    out = (
        ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                              columns=["user_id", "event_type"])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pivot, batch_format="pandas")
        .to_pandas()
    )
    return pa.Table.from_pandas(
        out.sort_values("user_id").reset_index(drop=True), preserve_index=False
    )


def q_doc_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP / GROUPING SETS: doc counts + char sums at (lang, source),
    (lang) and grand-total levels, subtotal rows marked 'ALL'.
    Scale shape: ONE distributed pre-aggregation to the bounded
    (lang × source) grid; the coarser levels re-aggregate that tiny
    grid (never the table) — the standard rollup-from-finest-level
    identity, exact because count and sum are decomposable."""
    base = (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["lang", "source", "n_chars"])
        .groupby(["lang", "source"])
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
        .to_pandas()
    )
    base["n_docs"] = base["n_docs"].astype("int64")
    base["sum_chars"] = base["sum_chars"].astype("int64")
    lang = base.groupby("lang", as_index=False)[["n_docs", "sum_chars"]].sum()
    lang["source"] = "ALL"
    total = pd.DataFrame(
        {"lang": ["ALL"], "source": ["ALL"],
         "n_docs": [base["n_docs"].sum()], "sum_chars": [base["sum_chars"].sum()]}
    )
    out = (
        pd.concat([base, lang, total], ignore_index=True)[
            ["lang", "source", "n_docs", "sum_chars"]
        ]
        .sort_values(["lang", "source"])
        .reset_index(drop=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


Q4_FLAG = "R"  # "order has ≥1 returned item" — the EXISTS predicate
SEMI_BROADCAST_LIMIT = 1_000_000


def q_priority_semi_join(sf_dir: str) -> pa.Table:
    """TPC-H-Q4-shaped SEMI-JOIN: order counts per priority for orders
    with at least one returned lineitem (EXISTS subquery).

    Ray-Data shape: the qualifying-orderkey set is computed as
    per-batch DISTINCT partials (bounded: ≤ batch distinct keys leave
    each lineitem batch, never the lineitem rows) and the EXISTS is
    ``joins.semi_join`` — broadcast ``is_in`` while the key set fits,
    hash-partitioned inner join against the deduplicated keys above
    ``SEMI_BROADCAST_LIMIT``. The count never sees lineitem width."""
    from ..joins import semi_join

    def returned_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], pa.scalar(Q4_FLAG)))
        return pa.table({"o_orderkey": pc.unique(pc.cast(t["l_orderkey"], pa.int64()))})

    keys = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]).map_batches(
        returned_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    n_keys = keys.count()  # upper bound (cross-batch dupes); path choice only

    def orders_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "o_orderpriority": t["o_orderpriority"],
            }
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        orders_project, batch_format="pyarrow", zero_copy_batch=True
    )
    out = (
        semi_join(orders, keys, on="o_orderkey", n_keys=n_keys,
                  broadcast_limit=SEMI_BROADCAST_LIMIT, num_partitions=ANTI_PARTITIONS)
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    return pa.Table.from_pandas(
        out.sort_values("o_orderpriority").reset_index(drop=True), preserve_index=False
    )


Q18_MIN_QTY = 250  # HAVING sum(qty) > 250 — ~top 2% of orders
Q18_K = 100


def q_large_orders(sf_dir: str) -> pa.Table:
    """TPC-H-Q18-shaped GROUP BY ... HAVING + hydration join: orders
    whose total lineitem quantity exceeds ``Q18_MIN_QTY``, hydrated
    with customer name, top-``Q18_K`` by (total_qty desc, orderkey).

    Ray-Data shape: per-batch partial quantity sums by l_orderkey
    (combiner — the shuffle carries ≤ distinct-orderkeys-per-batch
    narrow rows), one groupby(l_orderkey).sum, HAVING as a vectorized
    filter. The survivors are a tiny set (~2% of orders), so the
    orders/customer hydration is a broadcast dict lookup — at larger
    survivor counts the same ``joins.semi_join`` tier applies."""

    def qty_partial(t: pa.Table) -> pa.Table:
        away = "half_towards_infinity"
        qty = pc.cast(pc.round(t["l_quantity"], round_mode=away), pa.int64())
        g = pa.table(
            {"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()), "qty": qty}
        ).group_by("l_orderkey").aggregate([("qty", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"], "qty": g["qty_sum"]})

    per_order = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey")
        .sum("qty")
    )

    def having(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["sum(qty)"], pa.scalar(Q18_MIN_QTY)))
        return pa.table(
            {
                "o_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
                "total_qty": pc.cast(t["sum(qty)"], pa.int64()),
            }
        )

    # HAVING applied distributed — only the ~2% survivors reach the driver
    big_df = per_order.map_batches(
        having, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]).to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
    df = big_df.merge(
        orders, left_on="o_orderkey", right_on="o_orderkey", how="inner"
    ).merge(cust, left_on="o_custkey", right_on="c_custkey", how="inner")
    df["totalprice_c"] = np.floor(df["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    df = df.sort_values(["total_qty", "o_orderkey"], ascending=[False, True]).head(Q18_K)
    out = df[["c_name", "c_custkey", "o_orderkey", "o_orderdate", "totalprice_c", "total_qty"]].copy()
    for c in ("c_custkey", "o_orderkey", "totalprice_c", "total_qty"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


Q14_TYPE = "PROMO"


def q_promo_revenue(sf_dir: str) -> pa.Table:
    """TPC-H-Q14-shaped conditional-aggregate ratio over a join: promo
    vs total revenue, one output row, integer-exact (revenue in
    cents×(100-disc) units, e4).

    Ray-Data shape: ``part`` is the small dimension side — its
    (partkey → is-promo) bitmap ships once via ``ray.put`` and each
    lineitem batch folds the CASE into two per-batch partial sums, so
    the 'shuffle' is a union of one-row partials (a driver-side sum of
    ≤ n_batches pairs). At a part table too big to broadcast the same
    shape runs over a hash-partitioned join — the combiner stays."""
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    promo = set(part.loc[part["p_type"] == Q14_TYPE, "p_partkey"].astype(np.int64))
    ref = ray.put(promo)

    class Partial:
        def __init__(self, r):
            self.promo = ray.get(r)

        def __call__(self, t: pa.Table) -> pa.Table:
            price_c = np.floor(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
            disc_c = np.floor(t["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
            rev = price_c * (100 - disc_c)
            pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            is_promo = np.fromiter((k in self.promo for k in pk), dtype=bool, count=len(pk))
            return pa.table(
                {
                    "promo_rev_e4": pa.array([int(rev[is_promo].sum())], type=pa.int64()),
                    "total_rev_e4": pa.array([int(rev.sum())], type=pa.int64()),
                }
            )

    parts = (
        _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
        .map_batches(Partial, fn_constructor_args=(ref,), batch_format="pyarrow",
                     zero_copy_batch=True, concurrency=2)
        .to_pandas()
    )
    return pa.table(
        {
            "promo_rev_e4": pa.array([int(parts["promo_rev_e4"].sum())], type=pa.int64()),
            "total_rev_e4": pa.array([int(parts["total_rev_e4"].sum())], type=pa.int64()),
        }
    )


ORACLE_SQL = {
    "priority_semi_join": f"""
        SELECT o_orderpriority, count(*)::BIGINT AS n_orders
        FROM orders o
        WHERE EXISTS (
            SELECT 1 FROM lineitem l
            WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = '{Q4_FLAG}'
        )
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority
    """,
    "large_orders": f"""
        WITH big AS (
          SELECT l_orderkey, sum(round(l_quantity)::BIGINT)::BIGINT AS total_qty
          FROM lineitem GROUP BY l_orderkey
          HAVING sum(round(l_quantity)::BIGINT) > {Q18_MIN_QTY}
        )
        SELECT c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate,
               floor(o.o_totalprice * 100 + 0.5)::BIGINT AS totalprice_c, b.total_qty
        FROM big b
        JOIN orders o ON o.o_orderkey = b.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        ORDER BY b.total_qty DESC, o.o_orderkey ASC
        LIMIT {Q18_K}
    """,
    "promo_revenue": f"""
        SELECT sum(CASE WHEN p.p_type = '{Q14_TYPE}'
                        THEN floor(l.l_extendedprice * 100 + 0.5)::BIGINT
                             * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT)
                        ELSE 0 END)::BIGINT AS promo_rev_e4,
               sum(floor(l.l_extendedprice * 100 + 0.5)::BIGINT
                   * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT))::BIGINT AS total_rev_e4
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    """,
    "event_pivot": f"""
        SELECT user_id,
               {", ".join(
                   f"sum(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END)::BIGINT AS n_{t}"
                   for t in EVENT_TYPES
               )},
               'u:' || user_id::VARCHAR AS ukey
        FROM events GROUP BY user_id
    """,
    "doc_rollup": """
        SELECT coalesce(lang, 'ALL') AS lang, coalesce(source, 'ALL') AS source,
               count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars
        FROM documents GROUP BY GROUPING SETS ((lang, source), (lang), ())
    """,
    "custdist": f"""
        WITH per_cust AS (
          SELECT c.c_custkey, count(o.o_orderkey)::BIGINT AS c_count
          FROM customer c
          LEFT OUTER JOIN orders o
            ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '{Q13_EXCLUDE}'
          GROUP BY c.c_custkey
        )
        SELECT c_count, count(*)::BIGINT AS custdist
        FROM per_cust GROUP BY c_count
    """,
    "lapsed_customers": f"""
        SELECT c.c_custkey, c.c_name, c.c_mktsegment
        FROM customer c
        WHERE NOT EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c.c_custkey
              AND o.o_orderdate >= TIMESTAMP '{LAPSED_CUTOFF}'
        )
        ORDER BY c.c_custkey
    """,
    "top_unshipped_orders": f"""
        SELECT l.l_orderkey,
               sum(floor(l.l_extendedprice * 100 + 0.5)::BIGINT
                   * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT))::BIGINT AS revenue_e4,
               o.o_orderdate, o.o_orderpriority
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        WHERE c.c_mktsegment = '{Q3_SEGMENT}'
          AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
          AND l.l_shipdate > TIMESTAMP '{Q3_CUTOFF}'
        GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
        ORDER BY revenue_e4 DESC, o.o_orderdate ASC, l.l_orderkey ASC
        LIMIT {Q3_K}
    """,
    "revenue_by_nation": """
        SELECT n.n_name AS nation,
               sum(floor(l.l_extendedprice * 100 + 0.5)::BIGINT
                   * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT))::BIGINT AS revenue_e4,
               count(*)::BIGINT AS n_items
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY n.n_name
    """,
    "topk_per_group": f"""
        SELECT doc_id, lang, n_chars, rank FROM (
          SELECT doc_id, lang, n_chars,
                 row_number() OVER (PARTITION BY lang
                                    ORDER BY n_chars DESC, doc_id ASC) - 1 AS rank
          FROM documents
        ) WHERE rank < {TOPK_PER_GROUP}
    """,
    "lineitem_agg": """
        SELECT l_returnflag, l_linestatus,
               sum(round(l_quantity)::BIGINT)::BIGINT AS sum_qty,
               sum(round(l_extendedprice * 100)::BIGINT)::BIGINT AS sum_price_cents,
               sum(round(l_discount * 100)::BIGINT)::BIGINT AS sum_disc_cents,
               count(*)::BIGINT AS count_order
        FROM lineitem
        GROUP BY l_returnflag, l_linestatus
    """,
    "orders_by_nation": """
        SELECT n.n_name, count(*)::BIGINT AS n_orders,
               sum(round(o.o_totalprice * 100)::BIGINT)::BIGINT AS total_price_cents
        FROM orders o
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY n.n_name
    """,
    "top_parts_by_size": """
        SELECT p_partkey, p_name, p_size
        FROM part ORDER BY p_size DESC, p_partkey ASC LIMIT 25
    """,
    "returned_revenue": f"""
        WITH agg AS (
          SELECT o.o_custkey,
                 sum(floor(l.l_extendedprice * 100 + 0.5)::BIGINT
                     * (100 - floor(l.l_discount * 100 + 0.5)::BIGINT))::BIGINT AS revenue_e4
          FROM lineitem l
          JOIN orders o ON o.o_orderkey = l.l_orderkey
          WHERE l.l_returnflag = 'R'
            AND o.o_orderdate >= TIMESTAMP '{Q10_START}'
            AND o.o_orderdate < TIMESTAMP '{Q10_END}'
          GROUP BY o.o_custkey
        ),
        ranked AS (
          SELECT o_custkey, revenue_e4,
                 row_number() OVER (ORDER BY revenue_e4 DESC, o_custkey ASC) - 1 AS rank
          FROM agg
        )
        SELECT c.c_custkey, c.c_name, r.revenue_e4,
               floor(c.c_acctbal * 100 + 0.5)::BIGINT AS c_acctbal_c,
               n.n_name, r.rank
        FROM ranked r
        JOIN customer c ON c.c_custkey = r.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        WHERE r.rank < {Q10_K}
    """,
}

QUERIES = {
    "lineitem_agg": q_lineitem_agg,
    "revenue_by_nation": q_revenue_by_nation,
    "orders_by_nation": q_orders_by_nation,
    "top_parts_by_size": q_top_parts_by_size,
    "topk_per_group": q_topk_per_group,
    "top_unshipped_orders": q_top_unshipped_orders,
    "lapsed_customers": q_lapsed_customers,
    "custdist": q_custdist,
    "event_pivot": q_event_pivot,
    "doc_rollup": q_doc_rollup,
    "returned_revenue": q_returned_revenue,
    "priority_semi_join": q_priority_semi_join,
    "large_orders": q_large_orders,
    "promo_revenue": q_promo_revenue,
}
