function A(i, j) {
  return 1 / ((i + j) * (i + j + 1) / 2 + i + 1);
}
function Au(u, v, n) {
  for (var i = 0; i < n; ++i) {
    var t = 0;
    for (var j = 0; j < n; ++j) t += A(i, j) * u[j];
    v[i] = t;
  }
}
function Atu(u, v, n) {
  for (var i = 0; i < n; ++i) {
    var t = 0;
    for (var j = 0; j < n; ++j) t += A(j, i) * u[j];
    v[i] = t;
  }
}
function AtAu(u, v, w, n) {
  Au(u, w, n);
  Atu(w, v, n);
}
function spectralnorm(n) {
  var i, u = Array(n), v = Array(n), w = Array(n), vv = 0, vBv = 0;
  for (i = 0; i < n; ++i) { u[i] = 1; v[i] = 0; w[i] = 0; }
  for (i = 0; i < 10; ++i) {
    AtAu(u, v, w, n);
    AtAu(v, u, w, n);
  }
  for (i = 0; i < n; ++i) {
    vBv += u[i] * v[i];
    vv += v[i] * v[i];
  }
  return Math.sqrt(vBv / vv);
}
var total = 0;
for (var i = 6; i <= 48; i *= 2) total += spectralnorm(i);
print(Math.floor(total * 1e9));
