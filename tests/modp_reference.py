"""The mod-p polynomial arithmetic of the irreducibility certificates before
it shared the integer convolution kernel: coefficients reduced ``% q`` after
every update, and the dividend re-trimmed at every step of the long
division.  Kept as the reference the property tests compare the package's
kernels against; inputs are reduced mod q, without trailing zeros.
"""


def poly_mod_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    a = a[:]
    inv = pow(b[-1], -1, q)
    qout = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] % q == 0:
            a.pop()
        if len(a) < len(b):
            break
        coef = (a[-1] * inv) % q
        shift = len(a) - len(b)
        qout[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % q
        a.pop()
    while a and a[-1] % q == 0:
        a.pop()
    return qout, a


def poly_mod_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    while b:
        _, r = poly_mod_divmod(a, b, q)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, q)
        a = [(c * inv) % q for c in a]
    return a


def poly_mod_mul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mod_powmod(base: list[int], e: int, mod: list[int], q: int) -> list[int]:
    result = [1]
    base = poly_mod_divmod(base, mod, q)[1]
    while e:
        if e & 1:
            result = poly_mod_divmod(poly_mod_mul(result, base, q), mod, q)[1]
        base = poly_mod_divmod(poly_mod_mul(base, base, q), mod, q)[1]
        e >>= 1
    return result


def distinct_degree_pattern(f: list[int], q: int) -> list[int] | None:
    """Degrees (with multiplicity) of the irreducible factors of square-free
    f over F_q, via distinct-degree decomposition.  None if f is not
    square-free mod q.
    """
    df = [(i * c) % q for i, c in enumerate(f)][1:]
    while df and df[-1] == 0:
        df.pop()
    if poly_mod_gcd(f, df, q) != [1]:
        return None
    pattern = []
    rem = f[:]
    d = 0
    h = [0, 1]  # x
    while len(rem) - 1 > 0:
        d += 1
        if 2 * d > len(rem) - 1:
            pattern.append(len(rem) - 1)
            break
        h = poly_mod_powmod(h, q, rem, q)
        hx = h[:]
        if len(hx) >= 2:
            hx[1] = (hx[1] - 1) % q
        else:
            hx = hx + [0] * (2 - len(hx))
            hx[1] = (hx[1] - 1) % q
        while hx and hx[-1] == 0:
            hx.pop()
        g = poly_mod_gcd(rem, hx, q)
        if len(g) - 1 > 0:
            count = (len(g) - 1) // d
            pattern.extend([d] * count)
            rem = poly_mod_divmod(rem, g, q)[0]
            h = poly_mod_divmod(h, rem, q)[1]
    return sorted(pattern)

