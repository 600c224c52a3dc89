"""QUADPACK's globally adaptive integrators QAGS and QAGI in pure Python.

A line-for-line port of ``dqagse`` (Gauss-Kronrod 21 on a finite interval)
and ``dqagie`` (Gauss-Kronrod 15 on [bound, inf) mapped onto (0, 1] by
x = bound + (1 - t)/t), with the error-list sort ``dqpsrt`` and Wynn's
epsilon algorithm ``dqelg`` (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983; Wynn, MTAC 10 (1956) 91).  Every IEEE
operation happens in the Fortran order, so results, error estimates and
subdivision counts equal those of ``scipy.integrate.quad`` bit for bit.
Sums are explicit loops for the same reason: ``sum()`` compensates its
rounding on Python 3.12 and later.

Only the absolute tolerance is kept (``epsrel = 0``): every error bound
``max(epsabs, epsrel*|I|)`` of the original is ``epsabs`` here.  Arrays are
1-based like the Fortran; index 0 is unused.
"""

from __future__ import annotations

import sys
from typing import Callable

__all__ = ["LIMIT", "qagse", "qagie"]

LIMIT = 200  # subintervals allowed, fixed; scipy's quad defaults to 50

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_UNDERFLOW_RESABS = _UFLOW / (50.0 * _EPMACH)
_ROUNDOFF = 50.0 * _EPMACH

# Gauss-Kronrod 21: Kronrod abscissae xgk, Kronrod weights wgk and the
# 10-point Gauss weights wg of dqk21.  Odd 1-based xgk(2j) are Gauss nodes.
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# Gauss-Kronrod 15 of dqk15i; the 7-point Gauss weights sit at the even
# 1-based positions of wg, the zeros in between are omitted.
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG7 = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)

# dqk21's two node loops: Gauss-Kronrod pairs xgk(2j), then Kronrod-only
# xgk(2j-1), each as (0-based slot, abscissa, Kronrod weight[, Gauss weight])
_GK21_GAUSS = tuple((2 * j + 1, _XGK21[2 * j + 1], _WGK21[2 * j + 1], _WG10[j])
                    for j in range(5))
_GK21_KRONROD = tuple((2 * j, _XGK21[2 * j], _WGK21[2 * j]) for j in range(5))


def _error(resk: float, resg: float, hlgth: float, resabs: float, resasc: float) -> float:
    """The error estimate shared by dqk21 and dqk15i."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) without pow overflowing for a huge ratio r
        r = 200.0 * abserr / resasc
        abserr = resasc * (r ** 1.5 if r < 1.0 else 1.0)
    if resabs > _UNDERFLOW_RESABS:
        abserr = max(_ROUNDOFF * resabs, abserr)
    return abserr


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, x, wk, wg in _GK21_GAUSS:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _GK21_KRONROD:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return resk * hlgth, _error(resk, resg, hlgth, resabs, resasc), resabs, resasc


def _qk15i(f: Callable[[float], float], boun: float, a: float, b: float) -> tuple:
    """dqk15i with inf = 1: the 15-point rule on [a, b] within (0, 1] of the
    integrand f(boun + (1-t)/t)/t^2; returns (result, abserr, resabs, resasc).

    Nearly every integral of the catalog runs here, so dqk15i's node loop is
    unrolled: the j-th pair of nodes gives fj1 and fj2.  Each accumulator
    still adds its terms in the Fortran order.  The zero Gauss weights
    wg(1), wg(3), wg(5) and wg(7) are skipped: adding 0*fsum changes
    nothing, and a non-finite fsum makes abserr nan either way.
    """
    x1, x2, x3, x4, x5, x6, x7, _ = _XGK15
    k1, k2, k3, k4, k5, k6, k7, k8 = _WGK15
    g2, g4, g6, g8 = _WG7
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f(boun + (1.0 - centr) / centr) / centr) / centr
    t1 = centr - hlgth * x1
    t2 = centr + hlgth * x1
    f11 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f12 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x2
    t2 = centr + hlgth * x2
    f21 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f22 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x3
    t2 = centr + hlgth * x3
    f31 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f32 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x4
    t2 = centr + hlgth * x4
    f41 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f42 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x5
    t2 = centr + hlgth * x5
    f51 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f52 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x6
    t2 = centr + hlgth * x6
    f61 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f62 = (f(boun + (1.0 - t2) / t2) / t2) / t2
    t1 = centr - hlgth * x7
    t2 = centr + hlgth * x7
    f71 = (f(boun + (1.0 - t1) / t1) / t1) / t1
    f72 = (f(boun + (1.0 - t2) / t2) / t2) / t2

    resg = g8 * fc
    resg = resg + g2 * (f21 + f22)
    resg = resg + g4 * (f41 + f42)
    resg = resg + g6 * (f61 + f62)
    resk = k8 * fc
    resabs = abs(resk)
    resk = resk + k1 * (f11 + f12)
    resk = resk + k2 * (f21 + f22)
    resk = resk + k3 * (f31 + f32)
    resk = resk + k4 * (f41 + f42)
    resk = resk + k5 * (f51 + f52)
    resk = resk + k6 * (f61 + f62)
    resk = resk + k7 * (f71 + f72)
    resabs = resabs + k1 * (abs(f11) + abs(f12))
    resabs = resabs + k2 * (abs(f21) + abs(f22))
    resabs = resabs + k3 * (abs(f31) + abs(f32))
    resabs = resabs + k4 * (abs(f41) + abs(f42))
    resabs = resabs + k5 * (abs(f51) + abs(f52))
    resabs = resabs + k6 * (abs(f61) + abs(f62))
    resabs = resabs + k7 * (abs(f71) + abs(f72))
    reskh = resk * 0.5
    resasc = k8 * abs(fc - reskh)
    resasc = resasc + k1 * (abs(f11 - reskh) + abs(f12 - reskh))
    resasc = resasc + k2 * (abs(f21 - reskh) + abs(f22 - reskh))
    resasc = resasc + k3 * (abs(f31 - reskh) + abs(f32 - reskh))
    resasc = resasc + k4 * (abs(f41 - reskh) + abs(f42 - reskh))
    resasc = resasc + k5 * (abs(f51 - reskh) + abs(f52 - reskh))
    resasc = resasc + k6 * (abs(f61 - reskh) + abs(f62 - reskh))
    resasc = resasc + k7 * (abs(f71 - reskh) + abs(f72 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    return result, _error(resk, resg, hlgth, resabs, resasc), resabs, resasc


def _qpsrt(last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple:
    """dqpsrt: keep ``iord`` sorted by descending error; returns the new
    (maxerr, ermax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # only after a subdivision raised the error: start above nrmax
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > LIMIT // 2 + 2:
            jupbn = LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax top-down, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """dqelg: Wynn's epsilon algorithm on epstab[1..n]; returns the new
    (n, result, abserr, nres).  epstab and res3la are updated in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            # two elements are very close: omit part of the table
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not (epsinf > 1e-4):
            # irregular behaviour in the table: omit part of it
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib = ib + 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx = indx + 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qags(rule: Callable[[float, float], tuple], a: float, b: float, epsabs: float) -> tuple:
    """The common body of dqagse and dqagie on [a, b] with epsrel = 0 and
    limit = LIMIT: (result, abserr, last, ier)."""
    if not (epsabs > 0.0):
        # dqagse's ier = 6: with epsrel = 0 the request is void
        raise ValueError(f"absolute tolerance must be positive, got {epsabs!r}")
    limit = LIMIT
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    ier = 0

    # first approximation to the integral
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = epsabs
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, last, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    sum_rlist = False  # leave the loop towards label 115 rather than 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2

        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the error sum over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = epsabs
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100 to 130)
    check_divergence = False
    if not sum_rlist:
        if abserr == _OFLOW:
            sum_rlist = True
        elif ier + ierro == 0:
            check_divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    sum_rlist = True
                else:
                    check_divergence = True
            elif abserr > errsum:
                sum_rlist = True
            elif area != 0.0:
                check_divergence = True
    if check_divergence:
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            if area == 0.0:
                # result/area is +-inf or nan: Fortran's comparisons below
                # then set ier = 6 unless all three vanish
                if result != 0.0 or errsum > 0.0:
                    ier = 6
            elif 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
                ier = 6
    elif sum_rlist:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, last, ier


def qagse(f: Callable[[float], float], a: float, b: float, epsabs: float) -> tuple:
    """dqagse: integral of ``f`` over finite [a, b] to absolute error ``epsabs``.

    Returns (result, abserr, last, ier) as ``scipy.integrate.quad`` with
    ``full_output=1`` reports them: ``last`` subintervals were used, and
    ``ier`` is QUADPACK's code (0 success; 1 limit reached; 2 roundoff;
    3 bad integrand; 4 no convergence; 5 probably divergent).
    """
    return _qags(lambda lo, hi: _qk21(f, lo, hi), a, b, epsabs)


def qagie(f: Callable[[float], float], bound: float, epsabs: float) -> tuple:
    """dqagie with inf = 1: integral of ``f`` over [bound, inf); see ``qagse``."""
    return _qags(lambda lo, hi: _qk15i(f, bound, lo, hi), 0.0, 1.0, epsabs)
