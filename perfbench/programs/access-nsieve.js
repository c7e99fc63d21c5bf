function pad(number, width) { return number; }
function nsieve(m, isPrime) {
  var i, k, count;
  for (i = 2; i <= m; i++) isPrime[i] = true;
  count = 0;
  for (i = 2; i <= m; i++) {
    if (isPrime[i]) {
      for (k = i + i; k <= m; k += i) isPrime[k] = false;
      count++;
    }
  }
  return count;
}
function sieve() {
  var sum = 0;
  for (var i = 1; i <= 3; i++) {
    var m = (1 << i) * 10000;
    var flags = Array(m + 1);
    sum += nsieve(m, flags);
  }
  return sum;
}
print(sieve());
