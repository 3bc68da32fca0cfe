"""Sales-processing pipeline combining all four concurrency models.

Four actors: an input simulator feeding JSON snippets, a parsing actor
wrapping two CSP processes (a tokenizer and a field extractor talking
over rendezvous channels), a storage actor applying updates through STM
transactions, and a forecast actor that fans per-project trend fitting
out to threads. One trace therefore carries lock, message, channel, and
commit events together.
"""

from __future__ import annotations

import random

from ..actors import send
from ..channels import Channel
from ..locks import RRLock
from ..runtime import spawn_actor, spawn_process, spawn_thread
from ..stm import TxRef, atomic
from .support import CompletionLatch, int_param

_EOF = "<eof>"


# -- minimal JSON tokenizing for the CSP parsing stage ------------------------

_PUNCT = {"{": "lbrace", "}": "rbrace", ":": "colon", ",": "comma"}


def tokenize(text: str):
    """Yield (kind, value) tokens for the flat JSON objects the feed uses."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            yield (_PUNCT[ch], ch)
            i += 1
        elif ch == '"':
            j = text.index('"', i + 1)
            yield ("string", text[i + 1:j])
            i = j + 1
        else:
            j = i
            while j < n and (text[j].isdigit() or text[j] in "+-.eE"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected character {ch!r} at {i}")
            yield ("number", float(text[i:j]))
            i = j


def extract_record(read_token):
    """Assemble one key/value object from a token stream; None at EOF."""
    token = read_token()
    if token == _EOF:
        return None
    kind, _ = token
    if kind != "lbrace":
        raise ValueError(f"record must start with '{{', got {kind}")
    record = {}
    while True:
        kind, value = read_token()
        if kind == "rbrace":
            return record
        if kind == "comma":
            continue
        key = value
        colon, _ = read_token()
        if colon != "colon":
            raise ValueError("expected ':' after key")
        _, val = read_token()
        record[key] = val


def _fit_trend(series: tuple[float, ...]) -> float:
    """Least-squares slope of amounts over their sequence index."""
    n = len(series)
    if n < 2:
        return 0.0
    xs = range(n)
    mean_x = (n - 1) / 2.0
    mean_y = sum(series) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, series))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def sales_pipeline(params: dict) -> dict:
    records = int_param(params, "records", 50)
    projects = int_param(params, "projects", 4, least=1)  # the feed draws one
    feed_seed = int_param(params, "feed_seed", 42)
    latch = CompletionLatch(1)
    refs = {}
    outputs = {}

    raw_ch = Channel()
    token_ch = Channel()
    parsed_ch = Channel()

    # CSP stage 1: raw JSON strings -> token stream
    def tokenizer_proc():
        while True:
            text = raw_ch.read()
            if text == _EOF:
                token_ch.write(_EOF)
                return
            for token in tokenize(text):
                token_ch.write(token)

    # CSP stage 2: token stream -> extracted records
    def extractor_proc():
        while True:
            record = extract_record(token_ch.read)
            if record is None:
                parsed_ch.write(_EOF)
                return
            parsed_ch.write(record)

    def simulator_handler(msg):
        parser = msg
        rng = random.Random(feed_seed)
        for i in range(records):
            project = f"P{rng.randrange(projects)}"
            amount = round(rng.uniform(1.0, 100.0), 2)
            send(parser, f'{{"project": "{project}", "amount": {amount}, "seq": {i}}}')
        send(parser, _EOF)

    def parser_handler(msg):
        if msg == _EOF:
            raw_ch.write(_EOF)
            if parsed_ch.read() != _EOF:
                raise ValueError("extractor did not finish cleanly")
            send(refs["storage"], _EOF)
            return
        raw_ch.write(msg)
        record = parsed_ch.read()
        send(refs["storage"], ("sale", record["project"], record["amount"]))

    totals = {f"P{i}": TxRef(0.0, f"total-P{i}") for i in range(projects)}
    series = {f"P{i}": TxRef((), f"series-P{i}") for i in range(projects)}

    def storage_handler(msg):
        if msg == _EOF:
            def snapshot():
                return {name: series[name].get() for name in series}

            send(refs["forecast"], ("data", atomic(snapshot)))
            return
        _, project, amount = msg

        def update():
            totals[project].set(totals[project].get() + amount)
            series[project].set(series[project].get() + (amount,))

        atomic(update)

    def forecast_handler(msg):
        _, snapshot = msg
        results: dict[str, float] = {}
        results_lock = RRLock()

        def fit(project, data):
            slope = _fit_trend(data)
            with results_lock:
                results[project] = round(slope, 6)

        threads = [
            spawn_thread(fit, project, data, name=f"fit-{project}")
            for project, data in sorted(snapshot.items())
        ]
        for t in threads:
            t.join()
        outputs["trends"] = dict(sorted(results.items()))
        latch.count_down()

    refs["storage"] = spawn_actor(storage_handler, name="storage")
    refs["forecast"] = spawn_actor(forecast_handler, name="forecast")
    parser = spawn_actor(parser_handler, name="json-parser")
    simulator = spawn_actor(simulator_handler, name="input-sim")

    tok = spawn_process(tokenizer_proc, name="tokenizer")
    ext = spawn_process(extractor_proc, name="extractor")

    send(simulator, parser)
    latch.wait()
    tok.join()
    ext.join()

    final_totals = {name: round(ref.get(), 2) for name, ref in sorted(totals.items())}
    return {
        "records": records,
        "totals": final_totals,
        "trends": outputs["trends"],
    }
