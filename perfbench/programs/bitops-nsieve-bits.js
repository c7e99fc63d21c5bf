function primes(isPrime, n) {
  var i, count = 0, m = 10000 << n, size = (m + 31) >> 5;
  for (i = 0; i < size; i++) isPrime[i] = 0xffffffff | 0;
  for (i = 2; i < m; i++)
    if (isPrime[i >> 5] & (1 << (i & 31))) {
      for (var j = i + i; j < m; j += i)
        isPrime[j >> 5] = isPrime[j >> 5] & ~(1 << (j & 31));
      count++;
    }
  return count;
}
function sieve() {
  var sum = 0;
  for (var i = 0; i <= 2; i++) {
    var isPrime = Array(((10000 << i) + 31) >> 5);
    sum += primes(isPrime, i);
  }
  return sum;
}
print(sieve());
